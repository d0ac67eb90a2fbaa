//! Demonstrates the two consistency conditions of the paper's Appendix B.
//!
//! *Linearizable* queues (`SingleLockPq`, `HuntPq`, `SimpleLinearPq`)
//! respect real-time order even mid-flight. *Quiescently consistent*
//! queues (`FunnelTreePq`, …) only promise sequential behaviour between
//! quiescent points — but as the appendix proves, that still guarantees
//! that `k` delete-mins issued after a quiescent point, with no concurrent
//! inserts, return exactly the `k` smallest priorities.
//!
//! This example drives a `FunnelTreePq` through insert-storm / quiescent /
//! delete-storm phases and checks the k-smallest guarantee each round.
//!
//! Run with: `cargo run --example consistency_demo`

use std::sync::{Arc, Barrier, Mutex};

use funnelpq::{Algorithm, Consistency, PqBuilder};

const THREADS: usize = 4;
const ROUNDS: usize = 5;
const PER_THREAD: usize = 32;

fn main() {
    let q = Arc::new(
        PqBuilder::new(Algorithm::FunnelTree, 64, THREADS).build::<(usize, usize, usize)>(),
    );
    assert_eq!(q.consistency(), Consistency::QuiescentlyConsistent);
    println!(
        "{} is {}; checking the Appendix-B k-smallest guarantee…",
        q.algorithm().name(),
        q.consistency()
    );

    for round in 0..ROUNDS {
        let inserted = Arc::new(Mutex::new(Vec::new()));
        let deleted = Arc::new(Mutex::new(Vec::new()));
        let barrier = Arc::new(Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|tid| {
                let q = Arc::clone(&q);
                let inserted = Arc::clone(&inserted);
                let deleted = Arc::clone(&deleted);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    // Phase 1: concurrent insert storm.
                    let mut mine = Vec::new();
                    for i in 0..PER_THREAD {
                        let pri = (tid * 17 + i * 11 + round) % 64;
                        q.insert(tid, pri, (round, tid, i));
                        mine.push(pri);
                    }
                    inserted.lock().unwrap().extend(mine);
                    // Quiescent point: every insert completes before any
                    // delete starts.
                    barrier.wait();
                    // Phase 2: concurrent delete storm, half the items.
                    let mut got = Vec::new();
                    for _ in 0..PER_THREAD / 2 {
                        let (pri, _) = q.delete_min(tid).expect("items present");
                        got.push(pri);
                    }
                    deleted.lock().unwrap().extend(got);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        // The deleted multiset must be exactly the k smallest inserted.
        let k = THREADS * PER_THREAD / 2;
        let mut want = inserted.lock().unwrap().clone();
        want.sort_unstable();
        want.truncate(k);
        let mut got = deleted.lock().unwrap().clone();
        got.sort_unstable();
        assert_eq!(got, want, "k-smallest violated in round {round}");
        println!("  round {round}: {k} parallel delete-mins returned exactly the {k} smallest ✓");

        // Drain the leftovers so the next round starts clean.
        while q.delete_min(0).is_some() {}
    }
    println!("quiescent consistency held across {ROUNDS} rounds ✓");
}
