//! Fairness tests for the FIFO-bin variants (§3.2 of the paper notes LIFO
//! bins "can cause unfairness (and even starvation) among items of equal
//! priority" and suggests FIFO bins as the fair alternative).

use std::sync::Arc;

use funnelpq::obs::NoopRecorder;
use funnelpq::{BinOrder, BoundedPq, SimpleLinearPq, SimpleTreePq};

fn linear(num_priorities: usize, max_threads: usize, order: BinOrder) -> SimpleLinearPq<u64> {
    SimpleLinearPq::with_recorder(num_priorities, max_threads, order, Arc::new(NoopRecorder))
}

#[test]
fn fifo_bins_serve_equal_priorities_in_arrival_order() {
    let queues: Vec<(&str, Box<dyn BoundedPq<u64>>)> = vec![
        ("SimpleLinear", Box::new(linear(4, 1, BinOrder::Fifo))),
        (
            "SimpleTree",
            Box::new(SimpleTreePq::with_recorder(
                4,
                1,
                BinOrder::Fifo,
                Arc::new(NoopRecorder),
            )),
        ),
    ];
    for (name, q) in queues {
        for i in 0..20 {
            q.insert(0, 2, i);
        }
        for i in 0..20 {
            assert_eq!(q.delete_min(0), Some((2, i)), "{name}: FIFO violated");
        }
    }
}

#[test]
fn lifo_bins_serve_equal_priorities_in_reverse() {
    let q = linear(4, 1, BinOrder::Lifo);
    for i in 0..10u64 {
        q.insert(0, 1, i);
    }
    for i in (0..10).rev() {
        assert_eq!(q.delete_min(0), Some((1, i)));
    }
}

/// Under concurrency, FIFO bins preserve each producer's own order among
/// its equal-priority items (a weaker but meaningful fairness property).
#[test]
fn fifo_bins_preserve_per_thread_order_under_concurrency() {
    const THREADS: usize = 4;
    const N: u64 = 200;
    let q = Arc::new(linear(1, THREADS + 1, BinOrder::Fifo));
    let handles: Vec<_> = (0..THREADS)
        .map(|tid| {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                for i in 0..N {
                    q.insert(tid, 0, (tid as u64) << 32 | i);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // Single-threaded drain: for each producer, items must appear in
    // increasing sequence order.
    let mut last_seen = [None::<u64>; THREADS];
    while let Some((_, x)) = q.delete_min(THREADS) {
        let tid = (x >> 32) as usize;
        let seq = x & 0xFFFF_FFFF;
        if let Some(prev) = last_seen[tid] {
            assert!(seq > prev, "thread {tid}: {seq} after {prev}");
        }
        last_seen[tid] = Some(seq);
    }
    for (tid, seen) in last_seen.iter().enumerate() {
        assert_eq!(*seen, Some(N - 1), "thread {tid}: all items recovered");
    }
}

/// The LIFO default can starve early items while later ones keep arriving —
/// demonstrate the contrast deterministically: with a LIFO bin, after
/// interleaved insert/delete pairs the *first* item is still inside.
#[test]
fn lifo_starvation_contrast() {
    let lifo = linear(1, 1, BinOrder::Lifo);
    let fifo = linear(1, 1, BinOrder::Fifo);
    lifo.insert(0, 0, 0u64);
    fifo.insert(0, 0, 0u64);
    for i in 1..=10 {
        lifo.insert(0, 0, i);
        fifo.insert(0, 0, i);
        // Each round one item is served.
        let (_, l) = lifo.delete_min(0).unwrap();
        let (_, f) = fifo.delete_min(0).unwrap();
        assert_eq!(l, i, "LIFO serves the newest item");
        assert_eq!(f, i - 1, "FIFO serves the oldest item");
    }
    // Item 0 never left the LIFO queue; the FIFO queue holds only the newest.
    assert_eq!(lifo.delete_min(0).map(|e| e.1), Some(0));
    assert_eq!(fifo.delete_min(0).map(|e| e.1), Some(10));
}
