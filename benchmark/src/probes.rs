//! Layer probes: each layer's public functions timed from outside, with
//! one thread (`t1`, the uncontended cost) or two (`t2`, the cost with
//! the other hardware thread contending).
//!
//! A `t1` number beside the matching two-thread number splits "the code
//! is slow" from "the code waits": a `t1` gain with a flat `t2` means the
//! layer is contention-bound.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use funnelpq::heap::BinaryHeap;
use funnelpq::{Algorithm, BoundedPq, PqBuilder};
use funnelpq_server::{Job, Router, TenantId};
use funnelpq_sync::{
    Bounds, FunnelConfig, FunnelCounter, FunnelStack, LockBin, LockedCounter, McsLock,
    SharedCounter, TtasMutex,
};
use funnelpq_util::{mono_ns, Acc, XorShift64Star};

use crate::native::{prepare, BATCH, POPULATION, PRIORITIES, THREADS};
use crate::server::{BANDS, DRAIN_BATCH};

/// Runs `op(tid, i)` on `threads` busy threads for `len`; returns the mean
/// time of one `op` as a thread sees it (threads × interval ÷ ops).
pub fn per_op_ns(threads: usize, len: Duration, op: impl Fn(usize, u64) + Sync) -> f64 {
    let stop = AtomicBool::new(false);
    let start = Barrier::new(threads + 1);
    let mut ops = 0u64;
    let mut elapsed_ns = 0u64;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let (stop, start, op) = (&stop, &start, &op);
                s.spawn(move || {
                    start.wait();
                    let t0 = Instant::now();
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        // 16 ops per flag check keeps the check out of the
                        // cheapest probes' numbers.
                        for _ in 0..16 {
                            op(tid, i);
                            i += 1;
                        }
                    }
                    (i, t0.elapsed().as_nanos() as u64)
                })
            })
            .collect();
        start.wait();
        std::thread::sleep(len);
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            let (n, ns) = h.join().expect("probe thread panicked");
            ops += n;
            elapsed_ns = elapsed_ns.max(ns);
        }
    });
    threads as f64 * elapsed_ns as f64 / ops as f64
}

/// `util.clock_ns`: one `mono_ns` read.
pub fn clock_ns(len: Duration) -> f64 {
    per_op_ns(1, len, |_, _| {
        std::hint::black_box(mono_ns());
    })
}

/// `util.acc_record_ns`: one `Acc::record`.
pub fn acc_record_ns(len: Duration) -> f64 {
    let mut acc = Acc::new();
    let t0 = Instant::now();
    let mut n = 0u64;
    while t0.elapsed() < len {
        for _ in 0..1024 {
            acc.record(std::hint::black_box(n * 37 % 100_000));
            n += 1;
        }
    }
    std::hint::black_box(acc.count());
    t0.elapsed().as_nanos() as f64 / n as f64
}

/// `sync.mcs.pair_ns`: one MCS lock + unlock.
pub fn mcs_pair_ns(threads: usize, len: Duration) -> f64 {
    let lock = McsLock::new();
    per_op_ns(threads, len, |_, _| drop(lock.lock()))
}

/// `sync.ttas.pair_ns`: one TTAS lock + unlock around an increment.
pub fn ttas_pair_ns(threads: usize, len: Duration) -> f64 {
    let m = TtasMutex::new(0u64);
    per_op_ns(threads, len, |_, _| *m.lock() += 1)
}

fn counter_op_ns(c: &dyn SharedCounter, threads: usize, len: Duration) -> f64 {
    // Increments and decrements alternate per thread, out of phase across
    // threads, so the funnel has reversing pairs to eliminate.
    per_op_ns(threads, len, |tid, i| {
        if (i + tid as u64).is_multiple_of(2) {
            std::hint::black_box(c.fetch_inc(tid));
        } else {
            std::hint::black_box(c.fetch_dec(tid));
        }
    })
}

/// `sync.locked_counter.op_ns`: one bounded inc/dec under the MCS lock.
pub fn locked_counter_op_ns(threads: usize, len: Duration) -> f64 {
    counter_op_ns(
        &LockedCounter::new(1 << 20, Bounds::non_negative()),
        threads,
        len,
    )
}

/// `sync.funnel_counter.op_ns`: one bounded inc/dec through the funnel.
pub fn funnel_counter_op_ns(threads: usize, len: Duration) -> f64 {
    let c = FunnelCounter::new(
        1 << 20,
        Bounds::non_negative(),
        FunnelConfig::for_threads(THREADS),
    );
    counter_op_ns(&c, threads, len)
}

/// `sync.funnel_stack.pair_ns`: one push + pop.
pub fn funnel_stack_pair_ns(threads: usize, len: Duration) -> f64 {
    let s: FunnelStack<u64> = FunnelStack::new(FunnelConfig::for_threads(THREADS));
    per_op_ns(threads, len, |tid, i| {
        s.push(tid, i);
        std::hint::black_box(s.pop(tid));
    })
}

/// `sync.lock_bin.pair_ns`: one insert + delete on the Figure-1 bin.
pub fn lock_bin_pair_ns(threads: usize, len: Duration) -> f64 {
    let b: LockBin<u64> = LockBin::new();
    per_op_ns(threads, len, |_, i| {
        b.insert(i);
        std::hint::black_box(b.delete());
    })
}

/// `core.heap.pair_ns`: one push + pop on the sequential heap at the
/// workloads' standing population.
pub fn heap_pair_ns(seed: u64, len: Duration) -> f64 {
    let mut rng = XorShift64Star::new(seed);
    let mut h: BinaryHeap<u64> = BinaryHeap::with_capacity(POPULATION + 1);
    for i in 0..POPULATION as u64 {
        h.push(rng.next_u64() as usize % PRIORITIES, i);
    }
    let t0 = Instant::now();
    let mut n = 0u64;
    while t0.elapsed() < len {
        for _ in 0..256 {
            h.push(rng.next_u64() as usize % PRIORITIES, n);
            std::hint::black_box(h.pop());
            n += 1;
        }
    }
    t0.elapsed().as_nanos() as f64 / n as f64
}

/// The three single-thread shapes timed on every queue.
#[derive(Debug, Clone, Copy)]
pub enum Solo {
    /// `insert` + `delete_min`; reports ns per pair.
    Pair,
    /// `insert_batch(8)` + `delete_min_batch(8)`; reports ns per item.
    BatchItem,
    /// Fused `replace_min`; reports ns per call.
    ReplaceMin,
}

/// One thread driving `algo` at the standing population (`*.t1`).
pub fn solo_ns(algo: Algorithm, shape: Solo, seed: u64, len: Duration) -> f64 {
    let p = prepare(algo, None, seed);
    let q: &dyn BoundedPq<u64> = p.q.as_ref();
    let mut rng = XorShift64Star::new(seed ^ 0x5010);
    let mut out = Vec::with_capacity(BATCH);
    let t0 = Instant::now();
    let mut units = 0u64;
    while t0.elapsed() < len {
        for _ in 0..64 {
            let r = rng.next_u64();
            let pri = (r >> 8) as usize % PRIORITIES;
            match shape {
                Solo::Pair => {
                    q.insert(0, pri, r);
                    std::hint::black_box(q.delete_min(0));
                    units += 1;
                }
                Solo::BatchItem => {
                    let batch = (0..BATCH as u64)
                        .map(|k| ((r >> (8 + k)) as usize % PRIORITIES, r + k))
                        .collect();
                    q.insert_batch(0, batch).expect("priorities in range");
                    out.clear();
                    units += (BATCH + q.delete_min_batch(0, BATCH, &mut out)) as u64;
                }
                Solo::ReplaceMin => {
                    std::hint::black_box(q.replace_min(0, pri, r));
                    units += 1;
                }
            }
        }
    }
    t0.elapsed().as_nanos() as f64 / units as f64
}

/// `server.route_ns`: one `Router::route`.
pub fn route_ns(len: Duration) -> f64 {
    let router = Router::new(1, crate::server::TENANTS);
    per_op_ns(1, len, |_, i| {
        std::hint::black_box(router.route(TenantId((i % 8) as u32)));
    })
}

/// Queue time per job on the server's path: one `try_insert` of a `Job`
/// into a SingleLock queue of [`BANDS`] priorities plus its share of a
/// `delete_min_batch(16)`, single-threaded — the numerator of
/// `server.queue_share`.
pub fn server_queue_ns_per_job(seed: u64, len: Duration) -> f64 {
    let q = PqBuilder::new(Algorithm::SingleLock, BANDS, 3).build::<Job>();
    let mut rng = XorShift64Star::new(seed);
    let job = |id: u64| Job {
        id,
        tenant: TenantId(0),
        deadline_ns: id,
        payload: id,
        period_ns: 0,
        repeats_left: 0,
        enqueued_ns: 0,
        enqueued_slot: 0,
    };
    // Half a capacity's worth resident, as on a busy shard.
    for i in 0..512 {
        q.insert(0, rng.next_u64() as usize % BANDS, job(i));
    }
    let mut out = Vec::with_capacity(DRAIN_BATCH);
    let t0 = Instant::now();
    let mut jobs = 0u64;
    while t0.elapsed() < len {
        for _ in 0..DRAIN_BATCH {
            q.insert(0, rng.next_u64() as usize % BANDS, job(jobs));
            jobs += 1;
        }
        out.clear();
        std::hint::black_box(q.delete_min_batch(1, DRAIN_BATCH, &mut out));
    }
    t0.elapsed().as_nanos() as f64 / jobs as f64
}
