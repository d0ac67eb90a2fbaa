//! Property-style tests for the native combining-funnel structures, driven
//! by the in-repo deterministic PRNG: single-threaded sequences must match
//! simple reference models exactly (quiescent consistency degenerates to
//! sequential semantics), and multi-threaded histories must satisfy the
//! counter/stack invariants.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use funnelpq_sync::{
    Bounds, CounterEvent, EventSink, FunnelConfig, FunnelCounter, FunnelStack, SharedCounter,
};
use funnelpq_util::XorShift64Star;

#[derive(Debug, Clone, Copy)]
enum CounterOp {
    Inc,
    Dec,
}

fn counter_ops(rng: &mut XorShift64Star) -> Vec<CounterOp> {
    let len = 1 + rng.below(199) as usize;
    (0..len)
        .map(|_| {
            if rng.bool_with(0.5) {
                CounterOp::Inc
            } else {
                CounterOp::Dec
            }
        })
        .collect()
}

#[test]
fn funnel_counter_sequential_matches_model() {
    for seed in 0..48u64 {
        let mut rng = XorShift64Star::new(seed);
        let start = rng.below(50) as i64;
        let ops = counter_ops(&mut rng);
        let c = FunnelCounter::new(start, Bounds::non_negative(), FunnelConfig::for_threads(1));
        let mut model = start;
        for op in ops {
            match op {
                CounterOp::Inc => {
                    assert_eq!(c.fetch_inc(0), model);
                    model += 1;
                }
                CounterOp::Dec => {
                    assert_eq!(c.fetch_dec(0), model);
                    if model > 0 {
                        model -= 1;
                    }
                }
            }
        }
        assert_eq!(c.value(), model, "seed {seed}");
    }
}

#[test]
fn funnel_counter_unbounded_matches_model() {
    for seed in 0..48u64 {
        let mut rng = XorShift64Star::new(seed ^ 0xC0DE);
        let ops = counter_ops(&mut rng);
        let c = FunnelCounter::new(0, Bounds::unbounded(), FunnelConfig::for_threads(1));
        let mut model = 0i64;
        for op in ops {
            match op {
                CounterOp::Inc => {
                    assert_eq!(c.fetch_inc(0), model);
                    model += 1;
                }
                CounterOp::Dec => {
                    assert_eq!(c.fetch_dec(0), model);
                    model -= 1;
                }
            }
        }
        assert_eq!(c.value(), model, "seed {seed}");
    }
}

#[test]
fn funnel_stack_sequential_matches_vec() {
    for seed in 0..48u64 {
        let mut rng = XorShift64Star::new(seed ^ 0x57AC);
        let s: FunnelStack<u64> = FunnelStack::new(FunnelConfig::for_threads(1));
        let mut model: Vec<u64> = Vec::new();
        let len = 1 + rng.below(199);
        for _ in 0..len {
            if rng.bool_with(0.55) {
                let v = rng.below(1000);
                s.push(0, v);
                model.push(v);
            } else {
                assert_eq!(s.pop(0), model.pop());
            }
        }
        assert_eq!(s.is_empty(), model.is_empty());
        // Drain both and compare the remainder in LIFO order.
        while let Some(want) = model.pop() {
            assert_eq!(s.pop(0), Some(want));
        }
        assert_eq!(s.pop(0), None, "seed {seed}");
    }
}

#[test]
fn mcs_mutex_guards_arbitrary_mutation() {
    // Single-threaded sanity that guard drops restore invariants.
    for seed in 0..32u64 {
        let mut rng = XorShift64Star::new(seed ^ 0x3C5);
        let m = funnelpq_sync::McsMutex::new(Vec::<u8>::new());
        let mut model = Vec::new();
        let len = 1 + rng.below(99);
        for _ in 0..len {
            let op = rng.below(4) as u8;
            match op {
                0..=2 => {
                    m.lock().push(op);
                    model.push(op);
                }
                _ => {
                    assert_eq!(m.lock().pop(), model.pop());
                }
            }
        }
        assert_eq!(m.lock().clone(), model, "seed {seed}");
    }
}

/// Multi-threaded: final counter value must equal start + incs - decs
/// restricted by the bound; all returned values in bounds.
#[test]
fn funnel_counter_concurrent_invariants() {
    use std::sync::Arc;
    const T: usize = 8;
    const N: usize = 300;
    for (lo, start) in [(Some(0), 0i64), (None, 1_000)] {
        let bounds = Bounds { lo, hi: None };
        let c = Arc::new(FunnelCounter::new(
            start,
            bounds,
            FunnelConfig::for_threads(T),
        ));
        let handles: Vec<_> = (0..T)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..N {
                        let v = if (t + i) % 2 == 0 {
                            c.fetch_inc(t)
                        } else {
                            c.fetch_dec(t)
                        };
                        if let Some(lo) = lo {
                            assert!(v >= lo, "returned {v} below bound {lo}");
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        if lo.is_none() {
            // Balanced incs and decs with no bound: exact conservation.
            assert_eq!(c.value(), start);
        } else {
            assert!(c.value() >= 0);
        }
    }
}

/// Counts every substrate event: the adaption tests read the funnels'
/// behaviour off these counts, never off a clock.
#[derive(Default)]
struct Count([AtomicU64; CounterEvent::COUNT]);

impl EventSink for Count {
    fn event_n(&self, event: CounterEvent, n: u64) {
        self.0[event.index()].fetch_add(n, Ordering::Relaxed);
    }
}

impl Count {
    /// (collisions, adaption grows, adaption shrinks) so far.
    fn activity(&self) -> [u64; 3] {
        [
            CounterEvent::FunnelCollision,
            CounterEvent::AdaptGrow,
            CounterEvent::AdaptShrink,
        ]
        .map(|e| self.0[e.index()].load(Ordering::Relaxed))
    }
}

/// Joins `handles`, failing loudly if they are not all done within `limit`
/// (the watchdog `mcs.rs` uses: a funnel thread waiting on a partner that
/// never answers must fail the test, not hang it).
fn join_within(handles: Vec<thread::JoinHandle<()>>, limit: Duration) {
    let deadline = Instant::now() + limit;
    while !handles.iter().all(|h| h.is_finished()) {
        assert!(
            Instant::now() < deadline,
            "starved: workers still running after {limit:?}"
        );
        thread::sleep(Duration::from_millis(1));
    }
    for h in handles {
        h.join().unwrap();
    }
}

/// Operations a solo thread may spend settling before the funnel must be
/// silent: no collision, no adaption step in either direction.
const WARM_UP: usize = 32;
const SETTLED: usize = 10_000;
const T: usize = 8;

/// One solo phase by thread 0 on both structures: `WARM_UP` operations,
/// then `SETTLED` more during which the sink must see nothing move, with
/// every returned value exact against a sequential model.
fn solo_phase(c: &FunnelCounter, s: &FunnelStack<u64>, sink: &Count, phase: &str) {
    let mut model = c.value();
    let mut quiet_from = [0; 3];
    for i in 0..WARM_UP + SETTLED {
        if i == WARM_UP {
            quiet_from = sink.activity();
        }
        if i % 3 == 2 {
            assert_eq!(c.fetch_dec(0), model, "{phase}: op {i}");
            model -= 1;
        } else {
            assert_eq!(c.fetch_inc(0), model, "{phase}: op {i}");
            model += 1;
        }
        s.push(0, i as u64);
        s.push(0, !(i as u64));
        assert_eq!(s.pop(0), Some(!(i as u64)), "{phase}: op {i}");
        assert_eq!(s.pop(0), Some(i as u64), "{phase}: op {i}");
    }
    assert_eq!(c.value(), model);
    assert_eq!(
        sink.activity(),
        quiet_from,
        "{phase}: a solo thread still collides or adapts after {WARM_UP} operations"
    );
}

/// Solo convergence, and re-convergence after a phase change: a thread
/// alone on a `for_threads(8)` counter and stack goes quiet within
/// `WARM_UP` operations, from a fresh funnel and again after eight threads
/// have driven its adaption state wherever contention takes it.
#[test]
fn solo_thread_converges_before_and_after_a_contended_phase() {
    let sink = Arc::new(Count::default());
    let c = Arc::new(FunnelCounter::with_sink(
        0,
        Bounds::unbounded(),
        FunnelConfig::for_threads(T),
        Some(sink.clone()),
    ));
    let s: Arc<FunnelStack<u64>> = Arc::new(FunnelStack::with_sink(
        FunnelConfig::for_threads(T),
        Some(sink.clone()),
    ));
    solo_phase(&c, &s, &sink, "fresh");

    let before = c.value();
    let start = Arc::new(Barrier::new(T));
    let handles = (0..T)
        .map(|t| {
            let (c, s, start) = (Arc::clone(&c), Arc::clone(&s), Arc::clone(&start));
            thread::spawn(move || {
                start.wait();
                for i in 0..2_000 {
                    if (t + i) % 2 == 0 {
                        c.fetch_inc(t);
                    } else {
                        c.fetch_dec(t);
                    }
                    s.push(t, i as u64);
                    assert!(
                        s.pop(t).is_some(),
                        "a pop after one's own push finds an item"
                    );
                }
            })
        })
        .collect();
    join_within(handles, Duration::from_secs(60));
    assert_eq!(c.value(), before, "balanced phase conserves the counter");
    assert!(s.is_empty(), "and the stack");

    solo_phase(&c, &s, &sink, "after 8 threads");
}
