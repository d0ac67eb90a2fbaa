//! One hot `FunnelCounter` (alternating inc/dec) and one hot `FunnelStack`
//! (push + pop) at T ∈ {1, 2, 4, 8} behind a start barrier: ns per
//! operation as a thread sees it, total Mops, and each thread's own count —
//! a funnel that lets one thread monopolise the object while the others
//! wait for partners shows only in the last column.
//!
//! Then the queue lock, two ways from the same build: a 16 384-entry
//! `BinaryHeap`, alternating push / pop, once in an `McsMutex` (`heap/lock`:
//! every operation is a FIFO hand-off, the paper's SingleLock) and once in
//! a `TtasMutex` with flag and heap on separate lines (`heap/ttas`: the
//! native SingleLock); and the two TTAS-locked objects the bounded-range
//! queues are built from: one `LockBin` (`bin`: insert + delete) and one
//! `LockedCounter` (`counter/locked`: alternating inc/dec, as the trees'
//! root counter sees it).
//!
//! `cargo run --release -p funnelpq-sync --example funnel_sweep -- [window_ms]`

use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use funnelpq_sync::{
    Bounds, FunnelConfig, FunnelCounter, FunnelStack, LockBin, LockedCounter, McsMutex,
    SharedCounter, TtasMutex,
};
use funnelpq_util::CachePadded;

const MAX_T: usize = 8;

/// Standing population of the `heap` object (pqbench's prefill).
const HEAP_ITEMS: u64 = 16_384;

/// One step of the `heap` object: push on even steps, pop on odd ones, with
/// keys scattered over the population's range so a push sifts.
fn heap_step(heap: &mut BinaryHeap<u64>, i: u64) {
    if i.is_multiple_of(2) {
        heap.push(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % HEAP_ITEMS);
    } else {
        std::hint::black_box(heap.pop());
    }
}

/// One step of a hot counter: threads alternate inc and dec out of phase,
/// so reversing operations meet.
fn counter_step(c: &impl SharedCounter, tid: usize, i: u64) {
    if (i + tid as u64).is_multiple_of(2) {
        std::hint::black_box(c.fetch_inc(tid));
    } else {
        std::hint::black_box(c.fetch_dec(tid));
    }
}

/// Runs `op(tid, i)` on `threads` threads for `window`; returns each
/// thread's operation count and the longest busy interval.
fn drive(threads: usize, window: Duration, op: impl Fn(usize, u64) + Sync) -> (Vec<u64>, Duration) {
    let stop = AtomicBool::new(false);
    let start = Barrier::new(threads + 1);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..threads)
            .map(|tid| {
                let (stop, start, op) = (&stop, &start, &op);
                s.spawn(move || {
                    start.wait();
                    let t0 = Instant::now();
                    let mut n = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        for _ in 0..64 {
                            op(tid, n);
                            n += 1;
                        }
                    }
                    (n, t0.elapsed())
                })
            })
            .collect();
        start.wait();
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
        let done: Vec<(u64, Duration)> = workers
            .into_iter()
            .map(|w| w.join().expect("worker panicked"))
            .collect();
        let busy = done.iter().map(|d| d.1).max().expect("at least one thread");
        (done.into_iter().map(|d| d.0).collect(), busy)
    })
}

fn row(object: &str, threads: usize, (counts, busy): (Vec<u64>, Duration)) {
    let total: u64 = counts.iter().sum();
    let ns = busy.as_nanos() as f64;
    println!(
        "{object:<14} T={threads}  {:>8.1} ns/op  {:>7.2} Mops  per-thread {counts:?}",
        threads as f64 * ns / total as f64,
        total as f64 * 1e3 / ns,
    );
}

fn main() {
    let window = match std::env::args().nth(1).map(|a| a.parse::<u64>()) {
        None => Duration::from_millis(400),
        Some(Ok(ms)) if ms > 0 => Duration::from_millis(ms),
        Some(_) => {
            eprintln!("usage: funnel_sweep [window_ms > 0]");
            std::process::exit(2);
        }
    };
    for threads in [1, 2, 4, 8] {
        let cfg = FunnelConfig::for_threads(MAX_T);
        let c = FunnelCounter::new(1 << 20, Bounds::non_negative(), cfg.clone());
        let counts = drive(threads, window, |tid, i| counter_step(&c, tid, i));
        row("counter", threads, counts);
        let s: FunnelStack<u64> = FunnelStack::new(cfg);
        let counts = drive(threads, window, |tid, i| {
            s.push(tid, i);
            std::hint::black_box(s.pop(tid));
        });
        row("stack", threads, counts);
        let heap = McsMutex::new((0..HEAP_ITEMS).collect::<BinaryHeap<u64>>());
        let counts = drive(threads, window, |_, i| heap_step(&mut heap.lock(), i));
        row("heap/lock", threads, counts);
        let heap = TtasMutex::new(CachePadded::new(heap.into_inner()));
        let counts = drive(threads, window, |_, i| heap_step(&mut heap.lock(), i));
        row("heap/ttas", threads, counts);
        let bin: LockBin<u64> = LockBin::new();
        let counts = drive(threads, window, |_, i| {
            bin.insert(i);
            std::hint::black_box(bin.delete());
        });
        row("bin", threads, counts);
        let c = LockedCounter::new(1 << 20, Bounds::non_negative());
        let counts = drive(threads, window, |tid, i| counter_step(&c, tid, i));
        row("counter/locked", threads, counts);
    }
}
