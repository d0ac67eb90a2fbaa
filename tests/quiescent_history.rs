//! The paper's Appendix-B quiescent-consistency specification, checked on
//! native threads for all nine queues. A pre-filled, bursty workload is
//! recorded (`recorder`) and audited by `funnelpq_util::audit`, whose
//! window pass finds the quiescent points and holds every window between
//! two of them to the appendix's bound (see its module docs). The same
//! audit runs on the simulated twins in
//! `crates/simqueues/tests/sim_quiescent_history.rs`.

mod recorder;

use std::thread;

use funnelpq::{Algorithm, BoundedPq, NumaConfig, PqBuilder, PqConfig};
use recorder::{drain_and_audit, Log};

const PRIS: usize = 24;
const THREADS: usize = 6;
const OPS: usize = 250;

/// Fills `q` with 800 items, runs six threads alternating inserts and
/// deletes (with yields that open quiescent gaps), drains, and audits,
/// holding a relaxed queue to `rank_bound` items.
fn run_check(q: &dyn BoundedPq<u64>, rank_bound: Option<u64>) {
    let mut fill = Log::new(0);
    for i in 0..800 {
        fill.insert(q, (i * 11) % PRIS, 1_000_000 + i as u64);
    }
    let mut logs = vec![fill];
    thread::scope(|s| {
        let threads: Vec<_> = (0..THREADS)
            .map(|tid| {
                s.spawn(move || {
                    let mut log = Log::new(tid);
                    for i in 0..OPS {
                        if i % 7 == tid % 7 {
                            thread::yield_now();
                        }
                        if (tid + i) % 2 == 0 {
                            log.insert(q, (tid * 31 + i * 17) % PRIS, (tid * OPS + i) as u64);
                        } else {
                            log.delete_min(q);
                        }
                    }
                    log
                })
            })
            .collect();
        logs.extend(threads.into_iter().map(|t| t.join().unwrap()));
    });
    let report = drain_and_audit(q, logs, rank_bound);
    assert!(
        report.windows_checked > 0,
        "{}: no checkable windows",
        q.algorithm_name()
    );
}

fn check(algo: Algorithm) {
    run_check(
        PqBuilder::new(algo, PRIS, THREADS + 1).build().as_ref(),
        None,
    );
}

#[test]
fn single_lock_satisfies_appendix_b() {
    check(Algorithm::SingleLock);
}

#[test]
fn hunt_et_al_satisfies_appendix_b() {
    check(Algorithm::HuntEtAl);
}

#[test]
fn skip_list_satisfies_appendix_b() {
    check(Algorithm::SkipList);
}

#[test]
fn simple_linear_satisfies_appendix_b() {
    check(Algorithm::SimpleLinear);
}

#[test]
fn simple_tree_satisfies_appendix_b() {
    check(Algorithm::SimpleTree);
}

#[test]
fn linear_funnels_satisfies_appendix_b() {
    check(Algorithm::LinearFunnels);
}

#[test]
fn funnel_tree_satisfies_appendix_b() {
    check(Algorithm::FunnelTree);
}

/// The relaxed queues' rank bounds, in items, against the ~800 a run
/// holds (a queue returning arbitrary items reaches about that). NumaPq's
/// is its old slack of half the priority range in items: 12 levels of ~33.
/// A MultiQueue thread keeps one heap for eight operations, which lets a
/// sequential drain run far ahead of the other heaps, so it gets three
/// quarters of the fill.
const NUMA_RANK_BOUND: u64 = 400;
const MQ_RANK_BOUND: u64 = 600;

#[test]
fn multi_queue_satisfies_appendix_b_with_bounded_rank_error() {
    let q = PqBuilder::new(Algorithm::MultiQueue, PRIS, THREADS + 1).build();
    run_check(q.as_ref(), Some(MQ_RANK_BOUND));
}

#[test]
fn numa_pq_satisfies_appendix_b_with_bounded_rank_error() {
    let cfg = PqConfig::NumaPq(NumaConfig {
        nodes: 2,
        epoch_ops: 64,
        ..NumaConfig::default()
    });
    let q = PqBuilder::from_config(cfg, PRIS, THREADS + 1).build();
    run_check(q.as_ref(), Some(NUMA_RANK_BOUND));
}
