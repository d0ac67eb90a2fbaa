//! Concurrency stress tests for the native queues: conservation (no item
//! lost or duplicated) under mixed workloads, and the quiescent-consistency
//! guarantee from the paper's Appendix B — `k` delete-mins after a
//! quiescent point, with no concurrent inserts, return exactly the `k`
//! smallest priorities present.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use funnelpq::{Algorithm, BoundedPq, HuntConfig, PqBuilder, PqConfig};

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

    /// Per-thread counters; worker `tid` bumps `progress()[tid]` after
    /// each operation.
    fn progress(&self) -> Arc<Vec<AtomicUsize>> {
        Arc::clone(&self.progress)
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

fn all_queues(num_pris: usize) -> Vec<(&'static str, Arc<dyn BoundedPq<u64>>)> {
    Algorithm::ALL
        .into_iter()
        .map(|a| {
            let q =
                PqBuilder::from_config(configured(a, 1 << 15), num_pris, THREADS).build::<u64>();
            (a.name(), Arc::from(q))
        })
        .collect()
}

/// Mixed inserts/deletes from every thread; at the end, deleted ∪ drained
/// must equal exactly the set of inserted items.
#[test]
fn conservation_under_mixed_load() {
    const OPS: usize = 400;
    for (name, q) in all_queues(16) {
        let watchdog = StressWatchdog::arm("conservation_under_mixed_load", THREADS, STRESS_LIMIT);
        let deleted = Arc::new(Mutex::new(Vec::new()));
        let handles: Vec<_> = (0..THREADS)
            .map(|tid| {
                let q = Arc::clone(&q);
                let deleted = Arc::clone(&deleted);
                let progress = watchdog.progress();
                thread::spawn(move || {
                    let mut local = Vec::new();
                    for i in 0..OPS {
                        let item = (tid * OPS + i) as u64;
                        q.insert(tid, (item % 16) as usize, item);
                        if i % 2 == 0 {
                            if let Some((_, x)) = q.delete_min(tid) {
                                local.push(x);
                            }
                        }
                        progress[tid].fetch_add(1, Ordering::Relaxed);
                    }
                    deleted.lock().unwrap().extend(local);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut all = deleted.lock().unwrap().clone();
        while let Some((_, x)) = q.delete_min(0) {
            all.push(x);
        }
        all.sort_unstable();
        let expect: Vec<u64> = (0..(THREADS * OPS) as u64).collect();
        assert_eq!(all, expect, "{name}: items lost or duplicated");
        assert!(q.is_empty(), "{name}: queue should be empty after drain");
    }
}

/// Parallel insert phase, quiescent point, then parallel delete phase of
/// exactly k ≤ total items: the union of the deleted priorities must be
/// the k smallest inserted.
#[test]
fn quiescent_k_smallest() {
    const PER_THREAD: usize = 50;
    const K: usize = 200; // k = half the items
    for (name, q) in all_queues(32) {
        let watchdog = StressWatchdog::arm("quiescent_k_smallest", THREADS, STRESS_LIMIT);
        let inserted = Arc::new(Mutex::new(Vec::new()));
        let barrier = Arc::new(Barrier::new(THREADS));
        let deleted = Arc::new(Mutex::new(Vec::new()));
        let budget = Arc::new(AtomicUsize::new(K));
        let handles: Vec<_> = (0..THREADS)
            .map(|tid| {
                let q = Arc::clone(&q);
                let inserted = Arc::clone(&inserted);
                let deleted = Arc::clone(&deleted);
                let barrier = Arc::clone(&barrier);
                let budget = Arc::clone(&budget);
                let progress = watchdog.progress();
                thread::spawn(move || {
                    let mut mine = Vec::new();
                    for i in 0..PER_THREAD {
                        let pri = (tid * 13 + i * 7) % 32;
                        q.insert(tid, pri, (tid * PER_THREAD + i) as u64);
                        mine.push(pri);
                        progress[tid].fetch_add(1, Ordering::Relaxed);
                    }
                    inserted.lock().unwrap().extend(mine);
                    // Quiescent point: all inserts complete before any
                    // delete begins.
                    barrier.wait();
                    let mut got = Vec::new();
                    loop {
                        // Claim one unit of the delete budget.
                        let prev = budget.fetch_sub(1, Ordering::AcqRel);
                        if prev == 0 || prev > K {
                            budget.fetch_add(1, Ordering::AcqRel);
                            break;
                        }
                        let e = q.delete_min(tid);
                        match e {
                            Some((p, _)) => got.push(p),
                            None => panic!("delete_min returned None with items present"),
                        }
                        progress[tid].fetch_add(1, Ordering::Relaxed);
                    }
                    deleted.lock().unwrap().extend(got);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut want: Vec<usize> = inserted.lock().unwrap().clone();
        want.sort_unstable();
        want.truncate(K);
        let mut got = deleted.lock().unwrap().clone();
        got.sort_unstable();
        assert_eq!(got.len(), K, "{name}: exactly k deletions should succeed");
        assert_eq!(got, want, "{name}: deleted set must be the k smallest");
    }
}

/// The four bounded-range queues, whose batched entry points reach each
/// bin and counter once per batch instead of once per item.
fn bounded_range_queues(num_pris: usize) -> Vec<(&'static str, Arc<dyn BoundedPq<u64>>)> {
    all_queues(num_pris)
        .into_iter()
        .filter(|(_, q)| Algorithm::SCALABLE.contains(&q.algorithm()))
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
    for (name, q) in bounded_range_queues(32) {
        let watchdog = StressWatchdog::arm("quiescent_k_smallest_batched", THREADS, STRESS_LIMIT);
        let barrier = Arc::new(Barrier::new(THREADS));
        let budget = Arc::new(AtomicUsize::new(K));
        let handles: Vec<_> = (0..THREADS)
            .map(|tid| {
                let q = Arc::clone(&q);
                let barrier = Arc::clone(&barrier);
                let budget = Arc::clone(&budget);
                let progress = watchdog.progress();
                thread::spawn(move || {
                    let mine: Vec<(usize, u64)> = (0..PER_THREAD)
                        .map(|i| ((tid * 13 + i * 7) % 32, (tid * PER_THREAD + i) as u64))
                        .collect();
                    for chunk in mine.chunks(10) {
                        q.insert_batch(tid, chunk.to_vec()).unwrap();
                        progress[tid].fetch_add(1, Ordering::Relaxed);
                    }
                    // Quiescent point: all inserts complete before any
                    // delete begins.
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
                        let n = q.delete_min_batch(tid, claimed, &mut got);
                        assert_eq!(n, claimed, "{name}: a batch came back short");
                        progress[tid].fetch_add(1, Ordering::Relaxed);
                    }
                    (mine, got)
                })
            })
            .collect();
        let (mut want, mut got) = (Vec::new(), Vec::new());
        for h in handles {
            let (mine, taken) = h.join().unwrap();
            want.extend(mine.into_iter().map(|(pri, _)| pri));
            got.extend(taken.into_iter().map(|(pri, _)| pri));
        }
        want.sort_unstable();
        want.truncate(K);
        got.sort_unstable();
        assert_eq!(got, want, "{name}: deleted set must be the k smallest");
    }
}

/// Half the threads file batches while the other half delete, singles and
/// batches alternating by thread; deleted plus drained must be exactly what
/// was filed, by count and by id checksum, and the queue must end empty —
/// the trees with every counter back at zero.
#[test]
fn batch_inserters_against_single_and_batched_deleters_conserve_items() {
    use funnelpq::{FunnelTreePq, LinearFunnelsPq, SimpleLinearPq, SimpleTreePq};
    const BATCHES: usize = 150;
    const BATCH: usize = 8;
    fn run<Q: BoundedPq<u64> + 'static>(q: Q) -> Arc<Q> {
        let (name, q) = (q.algorithm_name(), Arc::new(q));
        let watchdog = StressWatchdog::arm("batch_inserters_vs_deleters", THREADS, STRESS_LIMIT);
        let barrier = Arc::new(Barrier::new(THREADS));
        let handles: Vec<_> = (0..THREADS)
            .map(|tid| {
                let q = Arc::clone(&q);
                let barrier = Arc::clone(&barrier);
                let progress = watchdog.progress();
                // Returns what this thread filed and what it removed.
                thread::spawn(move || {
                    let (mut filed, mut out) = (Vec::new(), Vec::new());
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
                                filed.extend(batch.iter().map(|&(_, id)| id));
                                q.insert_batch(tid, batch).unwrap();
                            }
                            2 => out.extend(q.delete_min(tid)),
                            _ => {
                                q.delete_min_batch(tid, BATCH, &mut out);
                            }
                        }
                        progress[tid].fetch_add(1, Ordering::Relaxed);
                    }
                    (filed, out)
                })
            })
            .collect();
        let (mut filed, mut taken) = (Vec::new(), Vec::new());
        for h in handles {
            let (f, t) = h.join().unwrap();
            filed.extend(f);
            taken.extend(t);
        }
        let mut rest = Vec::new();
        q.delete_min_batch(0, usize::MAX, &mut rest);
        taken.extend_from_slice(&rest);
        // Ids are distinct, so count and wrapping sum of squares tell a
        // loss, a duplicate and a swap apart from a clean run.
        let checksum = |ids: &mut dyn Iterator<Item = u64>| {
            ids.fold((0u64, 0u64), |(n, sum), id| {
                (n + 1, sum.wrapping_add(id * id))
            })
        };
        assert_eq!(
            checksum(&mut taken.iter().map(|&(_, id)| id)),
            checksum(&mut filed.into_iter()),
            "{name}: (count, id checksum) filed and removed differ"
        );
        assert!(
            rest.windows(2).all(|w| w[0].0 <= w[1].0),
            "{name}: quiescent drain out of order"
        );
        assert!(q.is_empty(), "{name}: queue should be empty after drain");
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
        let q = Arc::new(NumaPq::new(16, T, cfg));
        let watchdog = StressWatchdog::arm("numa_batched_conservation", T, STRESS_LIMIT);
        let barrier = Arc::new(Barrier::new(T));
        let handles: Vec<_> = (0..T)
            .map(|tid| {
                let (q, barrier) = (Arc::clone(&q), Arc::clone(&barrier));
                let progress = watchdog.progress();
                thread::spawn(move || {
                    let (mut filed, mut out) = (Vec::new(), Vec::new());
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
                        filed.extend(batch.iter().map(|&(_, id)| id));
                        q.insert_batch(tid, batch).unwrap();
                        if tid % 2 == 0 {
                            q.delete_min_batch(tid, BATCH, &mut out);
                        } else {
                            out.extend(q.delete_min(tid));
                        }
                        progress[tid].fetch_add(1, Ordering::Relaxed);
                    }
                    (filed, out)
                })
            })
            .collect();
        let (mut filed, mut taken) = (Vec::new(), Vec::new());
        for h in handles {
            let (f, t) = h.join().unwrap();
            filed.extend(f);
            taken.extend(t.into_iter().map(|(_, id)| id));
        }
        let mut rest = Vec::new();
        q.delete_min_batch(0, usize::MAX, &mut rest);
        taken.extend(rest.into_iter().map(|(_, id)| id));
        filed.sort_unstable();
        taken.sort_unstable();
        assert_eq!(taken, filed, "{name}: items lost or duplicated");
        assert!(q.is_empty(), "{name}: queue should be empty after drain");
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
    for (name, q) in all_queues(1) {
        let watchdog = StressWatchdog::arm("single_priority_pool_semantics", THREADS, STRESS_LIMIT);
        let taken = Arc::new(Mutex::new(Vec::new()));
        let handles: Vec<_> = (0..THREADS)
            .map(|tid| {
                let q = Arc::clone(&q);
                let taken = Arc::clone(&taken);
                let progress = watchdog.progress();
                thread::spawn(move || {
                    let mut local = Vec::new();
                    for i in 0..OPS {
                        q.insert(tid, 0, (tid * OPS + i) as u64);
                        if let Some((p, x)) = q.delete_min(tid) {
                            assert_eq!(p, 0);
                            local.push(x);
                        }
                        progress[tid].fetch_add(1, Ordering::Relaxed);
                    }
                    taken.lock().unwrap().extend(local);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut all = taken.lock().unwrap().clone();
        while let Some((_, x)) = q.delete_min(0) {
            all.push(x);
        }
        all.sort_unstable();
        all.dedup();
        assert_eq!(
            all.len(),
            THREADS * OPS,
            "{name}: duplicates or losses detected"
        );
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
    for (name, q) in all_queues(4) {
        assert_eq!(q.consistency(), expect(q.algorithm()), "{name}");
        assert_eq!(q.algorithm_name(), name);
    }
}
