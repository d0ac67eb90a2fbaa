//! Concurrency stress tests for the native queues. Every thread records
//! its calls (`recorder`) and each scenario ends in the history audit
//! (`funnelpq_util::audit`): per-item conservation (no item lost or
//! duplicated), causality, the interval witness for the linearizable
//! queues, and the paper's Appendix-B windows — `k` delete-mins after a
//! quiescent point, with no concurrent inserts, return exactly the `k`
//! smallest priorities present.

mod recorder;

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use funnelpq::{Algorithm, BoundedPq, HuntConfig, PqBuilder, PqConfig};
use recorder::{drain_and_audit, Log};

const THREADS: usize = 8;

/// Default typed config for `a`, except HuntEtAl gets a stress-sized
/// capacity — the migrated form of the old `hunt_capacity` sweep knob.
fn configured(a: Algorithm, hunt_capacity: usize) -> PqConfig {
    match PqConfig::for_algorithm(a).expect("natively buildable") {
        PqConfig::HuntEtAl(_) => PqConfig::HuntEtAl(HuntConfig {
            capacity: hunt_capacity,
        }),
        cfg => cfg,
    }
}

/// Wall-clock watchdog for the stress tests: a native queue bug that
/// livelocks (threads spinning forever on a lock or a funnel slot) would
/// otherwise hang the test runner with no diagnostic. Worker threads bump
/// their per-thread counter after every operation; if the scenario
/// exceeds the limit, the watchdog prints every thread's progress count —
/// pinpointing which threads stopped advancing — and aborts the process.
struct StressWatchdog {
    progress: Arc<Vec<AtomicUsize>>,
    done: Arc<AtomicBool>,
    monitor: Option<thread::JoinHandle<()>>,
}

impl StressWatchdog {
    fn arm(label: &'static str, threads: usize, limit: Duration) -> Self {
        let progress: Arc<Vec<AtomicUsize>> =
            Arc::new((0..threads).map(|_| AtomicUsize::new(0)).collect());
        let done = Arc::new(AtomicBool::new(false));
        let (p, d) = (Arc::clone(&progress), Arc::clone(&done));
        let monitor = thread::spawn(move || {
            let start = Instant::now();
            while !d.load(Ordering::Acquire) {
                thread::sleep(Duration::from_millis(50));
                if start.elapsed() > limit {
                    let counts: Vec<usize> = p.iter().map(|c| c.load(Ordering::Relaxed)).collect();
                    // A panic in a background thread cannot fail the hung
                    // test, so print the diagnostic and abort.
                    eprintln!(
                        "stress watchdog: {label} made no full pass within {limit:?}; \
                         per-thread op counts: {counts:?}"
                    );
                    std::process::abort();
                }
            }
        });
        StressWatchdog {
            progress,
            done,
            monitor: Some(monitor),
        }
    }
}

impl Drop for StressWatchdog {
    fn drop(&mut self) {
        self.done.store(true, Ordering::Release);
        if let Some(h) = self.monitor.take() {
            let _ = h.join();
        }
    }
}

/// Generous limit per queue scenario: the workloads finish in milliseconds;
/// minutes of wall clock means wedged, not slow.
const STRESS_LIMIT: Duration = Duration::from_secs(120);

/// Runs `body(tid, log, tick)` on `threads` scoped threads behind a
/// [`StressWatchdog`] (`tick` after every operation) and returns their
/// logs.
fn logged<F>(label: &'static str, threads: usize, body: F) -> Vec<Log>
where
    F: Fn(usize, &mut Log, &dyn Fn()) + Sync,
{
    let watchdog = StressWatchdog::arm(label, threads, STRESS_LIMIT);
    let (body, progress) = (&body, &watchdog.progress);
    thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                s.spawn(move || {
                    let mut log = Log::new(tid);
                    body(tid, &mut log, &|| {
                        progress[tid].fetch_add(1, Ordering::Relaxed);
                    });
                    log
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

fn all_queues(num_pris: usize) -> Vec<Box<dyn BoundedPq<u64>>> {
    Algorithm::ALL
        .into_iter()
        .map(|a| PqBuilder::from_config(configured(a, 1 << 15), num_pris, THREADS).build())
        .collect()
}

/// Mixed inserts/deletes from every thread; deleted and drained must be
/// exactly the inserted items.
#[test]
fn conservation_under_mixed_load() {
    const OPS: usize = 400;
    for q in all_queues(16) {
        let logs = logged(
            "conservation_under_mixed_load",
            THREADS,
            |tid, log, tick| {
                for i in 0..OPS {
                    let item = (tid * OPS + i) as u64;
                    log.insert(&*q, (item % 16) as usize, item);
                    if i % 2 == 0 {
                        log.delete_min(&*q);
                    }
                    tick();
                }
            },
        );
        drain_and_audit(&*q, logs, None);
    }
}

/// Parallel insert phase, quiescent point, then parallel delete phase of
/// exactly k ≤ total items: a window without inserts, which the audit
/// holds to exactly the k smallest priorities inserted.
#[test]
fn quiescent_k_smallest() {
    const PER_THREAD: usize = 50;
    const K: usize = 200; // k = half the items
    for q in all_queues(32) {
        let barrier = Barrier::new(THREADS);
        let budget = AtomicUsize::new(K);
        let logs = logged("quiescent_k_smallest", THREADS, |tid, log, tick| {
            for i in 0..PER_THREAD {
                let pri = (tid * 13 + i * 7) % 32;
                log.insert(&*q, pri, (tid * PER_THREAD + i) as u64);
                tick();
            }
            // Quiescent point: all inserts complete before any delete
            // begins.
            barrier.wait();
            // One unit of the delete budget per delete.
            while budget
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |b| b.checked_sub(1))
                .is_ok()
            {
                log.delete_min(&*q);
                tick();
            }
        });
        drain_and_audit(&*q, logs, None);
    }
}

/// The four bounded-range queues, whose batched entry points reach each
/// bin and counter once per batch instead of once per item.
fn bounded_range_queues(num_pris: usize) -> Vec<Box<dyn BoundedPq<u64>>> {
    all_queues(num_pris)
        .into_iter()
        .filter(|q| Algorithm::SCALABLE.contains(&q.algorithm()))
        .collect()
}

/// [`quiescent_k_smallest`] with the deleters taking their share of `k` in
/// batches of up to eight: a batch's claims split at every counter (or
/// spill from bin to bin), and together they must still land on exactly the
/// `k` smallest — every call returning all it asked for.
#[test]
fn quiescent_k_smallest_batched() {
    const PER_THREAD: usize = 50;
    const K: usize = 200;
    for q in bounded_range_queues(32) {
        let name = q.algorithm_name();
        let barrier = Barrier::new(THREADS);
        let budget = AtomicUsize::new(K);
        let logs = logged("quiescent_k_smallest_batched", THREADS, |tid, log, tick| {
            let mine: Vec<(usize, u64)> = (0..PER_THREAD)
                .map(|i| ((tid * 13 + i * 7) % 32, (tid * PER_THREAD + i) as u64))
                .collect();
            for chunk in mine.chunks(10) {
                log.insert_batch(&*q, chunk.to_vec());
                tick();
            }
            // Quiescent point: all inserts complete before any delete
            // begins.
            barrier.wait();
            let mut got = Vec::new();
            loop {
                // Claim up to `tid % 8 + 1` units of the budget.
                let ask = tid % 8 + 1;
                let claimed = budget
                    .fetch_update(Ordering::AcqRel, Ordering::Acquire, |b| {
                        Some(b - b.min(ask))
                    })
                    .unwrap()
                    .min(ask);
                if claimed == 0 {
                    break;
                }
                let n = log.delete_min_batch(&*q, claimed, &mut got);
                assert_eq!(n, claimed, "{name}: a batch came back short");
                tick();
            }
        });
        drain_and_audit(&*q, logs, None);
    }
}

/// Half the threads file batches while the other half delete, singles and
/// batches alternating by thread; deleted plus drained must be exactly what
/// was filed, and the queue must end empty — the trees with every counter
/// back at zero.
#[test]
fn batch_inserters_against_single_and_batched_deleters_conserve_items() {
    use funnelpq::{FunnelTreePq, LinearFunnelsPq, SimpleLinearPq, SimpleTreePq};
    const BATCHES: usize = 150;
    const BATCH: usize = 8;
    fn run<Q: BoundedPq<u64>>(q: Q) -> Q {
        let barrier = Barrier::new(THREADS);
        let logs = logged("batch_inserters_vs_deleters", THREADS, |tid, log, tick| {
            let mut out = Vec::new();
            barrier.wait();
            for i in 0..BATCHES {
                match tid % 4 {
                    0 | 1 => {
                        let batch: Vec<(usize, u64)> = (0..BATCH)
                            .map(|j| {
                                let id = (tid * BATCHES + i) * BATCH + j;
                                ((id * 7 + i) % 16, id as u64)
                            })
                            .collect();
                        log.insert_batch(&q, batch);
                    }
                    2 => {
                        log.delete_min(&q);
                    }
                    _ => {
                        log.delete_min_batch(&q, BATCH, &mut out);
                    }
                }
                tick();
            }
        });
        drain_and_audit(&q, logs, None);
        q
    }
    run(SimpleLinearPq::new(16, THREADS));
    run(LinearFunnelsPq::new(16, THREADS));
    run(SimpleTreePq::new(16, THREADS)).validate();
    run(FunnelTreePq::new(16, THREADS)).validate();
}

/// NumaPq with four threads filing batches, half of them deleting in
/// batches and half in singles: adaptive, with thread 0 raising and
/// dropping the emulated remote cost so the mode moves both ways mid-run,
/// and pinned to delegation. A batched delete takes en bloc from a locked
/// winner and one item through the mailbox; every item filed must come
/// back exactly once.
#[test]
fn numa_batched_conservation_adaptive_and_pinned_to_delegation() {
    use funnelpq::{NumaConfig, NumaMode, NumaPolicy, NumaPq};
    const T: usize = 4;
    const ROUNDS: usize = 300;
    const BATCH: usize = 8;
    let adaptive = NumaConfig {
        epoch_ops: 16,
        ..NumaConfig::default()
    };
    let delegating = NumaConfig {
        policy: NumaPolicy::Pinned(NumaMode::Delegation),
        ..NumaConfig::default()
    };
    for (name, cfg) in [("adaptive", adaptive), ("delegation", delegating)] {
        let shifting = name == "adaptive";
        let q = NumaPq::new(16, T, cfg);
        let barrier = Barrier::new(T);
        let logs = logged("numa_batched_conservation", T, |tid, log, tick| {
            let mut out = Vec::new();
            barrier.wait();
            for i in 0..ROUNDS {
                if shifting && tid == 0 && i % 50 == 0 {
                    let dear = (i / 50) % 2 == 0;
                    q.topology().set_remote_ns(if dear { 2_000 } else { 0 });
                }
                let batch: Vec<(usize, u64)> = (0..BATCH)
                    .map(|j| {
                        let id = ((tid * ROUNDS + i) * BATCH + j) as u64;
                        ((id * 7 % 16) as usize, id)
                    })
                    .collect();
                log.insert_batch(&q, batch);
                if tid % 2 == 0 {
                    log.delete_min_batch(&q, BATCH, &mut out);
                } else {
                    log.delete_min(&q);
                }
                tick();
            }
        });
        drain_and_audit(&q, logs, None);
        let s = q.adaptive_stats().unwrap();
        if shifting {
            assert!(s.switches > 0, "{name}: the mode never moved: {s:?}");
        } else {
            assert!(
                s.delegated + s.self_served > 0,
                "{name}: the mailbox was never used: {s:?}"
            );
        }
    }
}

/// Many threads hammer a single priority: items behave like a pool and the
/// queue never fabricates items.
#[test]
fn single_priority_pool_semantics() {
    const OPS: usize = 300;
    for q in all_queues(1) {
        let logs = logged(
            "single_priority_pool_semantics",
            THREADS,
            |tid, log, tick| {
                for i in 0..OPS {
                    log.insert(&*q, 0, (tid * OPS + i) as u64);
                    log.delete_min(&*q);
                    tick();
                }
            },
        );
        drain_and_audit(&*q, logs, None);
    }
}

/// The consistency documented per queue matches the claim table in lib.rs.
#[test]
fn consistency_labels() {
    use funnelpq::Consistency;
    let expect = |a: Algorithm| match a {
        Algorithm::SingleLock | Algorithm::SimpleLinear => Consistency::Linearizable,
        _ => Consistency::QuiescentlyConsistent,
    };
    for q in all_queues(4) {
        assert_eq!(
            q.consistency(),
            expect(q.algorithm()),
            "{}",
            q.algorithm_name()
        );
    }
}
