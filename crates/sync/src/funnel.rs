//! Combining-funnel shared counter (Shavit & Zemach, PODC 1998/1999): the
//! paper's bounded counter, one use of the combining-funnel walk
//! ([`crate::walk`]).
//!
//! A counter's tree carries nothing but its signed size: `+k` for `k`
//! increments, `-k` for `k` decrements. Reversing trees of equal size
//! eliminate against a plausible value near the central one and never touch
//! it; a tree that leaves the layers applies its whole size to the central
//! value with a single compare-and-swap, clamped to the bounds, and hands
//! consecutive prefixes back down the tree.
//!
//! This implementation is quiescently consistent, like the paper's.

use std::sync::atomic::{AtomicI64, Ordering};

use funnelpq_util::CachePadded;

use crate::counter::{Bounds, SharedCounter};
use crate::probe::{CounterEvent, SinkRef};
use crate::walk::{Funnel, FunnelConfig, FunnelObject};

/// Result word tags.
const TAG_COUNT: u64 = 1;
const TAG_ELIM: u64 = 2;

fn pack_result(tag: u64, v: i64) -> u64 {
    debug_assert!(tag == TAG_COUNT || tag == TAG_ELIM);
    ((v as u64) << 2) | tag
}

fn unpack_result(x: u64) -> (u64, i64) {
    (x & 0b11, (x as i64) >> 2)
}

/// A combining-funnel counter with optional bounds.
///
/// Supports `fetch_inc` and `fetch_dec` where the decrement (increment) is
/// bounded if the counter was built with a lower (upper) bound — the
/// *bounded fetch-and-decrement* the paper's `FunnelTree` requires, with
/// elimination of concurrent increment/decrement pairs.
///
/// Thread ids must be dense, below `config.max_threads`, and not used
/// concurrently from two threads (that is a logic error, not a memory-safety
/// error).
///
/// # Examples
///
/// ```
/// use funnelpq_sync::{Bounds, FunnelConfig, FunnelCounter, SharedCounter};
/// let c = FunnelCounter::new(0, Bounds::non_negative(), FunnelConfig::for_threads(4));
/// assert_eq!(c.fetch_inc(0), 0);
/// assert_eq!(c.fetch_dec(0), 1);
/// assert_eq!(c.fetch_dec(0), 0); // saturated: nothing to decrement
/// assert_eq!(c.value(), 0);
/// ```
pub struct FunnelCounter {
    bounds: Bounds,
    central: CachePadded<AtomicI64>,
    funnel: Funnel<()>,
}

impl FunnelCounter {
    /// Creates a funnel counter.
    ///
    /// # Panics
    ///
    /// Panics if `initial` lies outside `bounds` or the config is invalid.
    pub fn new(initial: i64, bounds: Bounds, cfg: FunnelConfig) -> Self {
        Self::with_sink(initial, bounds, cfg, None)
    }

    /// Like [`FunnelCounter::new`], reporting funnel micro-events to `sink`,
    /// batched per operation: collisions won, central CAS retries,
    /// operations eliminated / combined-but-applied-centrally (counted once,
    /// by the tree root), and adaption steps.
    ///
    /// # Panics
    ///
    /// Panics if `initial` lies outside `bounds` or the config is invalid.
    pub fn with_sink(
        initial: i64,
        bounds: Bounds,
        cfg: FunnelConfig,
        sink: Option<SinkRef>,
    ) -> Self {
        let funnel = Funnel::new(cfg, sink);
        assert_eq!(
            bounds.clamp(initial),
            initial,
            "initial value out of bounds"
        );
        FunnelCounter {
            bounds,
            central: CachePadded::new(AtomicI64::new(initial)),
            funnel,
        }
    }

    /// The configured bounds.
    pub fn bounds(&self) -> Bounds {
        self.bounds
    }

    /// Maximum number of thread ids this counter accepts.
    pub fn max_threads(&self) -> usize {
        self.funnel.cfg.max_threads
    }
}

impl FunnelObject for FunnelCounter {
    type Carry = ();
    type Output = i64;
    const LOCKED: bool = false;

    fn meet(&self, sum: i64, qsum: i64, _: &mut (), _: &()) -> Option<(u64, u64)> {
        if qsum != -sum {
            return None;
        }
        // Reversing operations: eliminate both trees.
        // ORDERING: SeqCst like every access to `central`; any recent value
        // would do.
        let val = self.central.load(Ordering::SeqCst);
        // Pick a plausible adjacent (inc, dec) pairing that stays within
        // bounds: dec observes `dv`, inc observes `dv - 1`.
        let mut dv = val;
        if self.bounds.lo == Some(dv) {
            dv += 1;
        }
        if let Some(hi) = self.bounds.hi {
            dv = dv.min(hi);
        }
        let (my_v, q_v) = if sum < 0 { (dv, dv - 1) } else { (dv - 1, dv) };
        Some((pack_result(TAG_ELIM, my_v), pack_result(TAG_ELIM, q_v)))
    }

    fn central(&self, sum: i64, _: (), _: bool) -> Option<u64> {
        // ORDERING: SeqCst, with the CAS below.
        let val = self.central.load(Ordering::SeqCst);
        let new = self.bounds.clamp(val + sum);
        // ORDERING: SeqCst CAS on the one word every root serialises on.
        // What callers need is the release/acquire edge between an
        // increment and the decrement that claims it (`CounterTree`: bin
        // insert → inc, dec → bin delete); kept SeqCst because on x86 it is
        // the same instruction.
        self.central
            .compare_exchange(val, new, Ordering::SeqCst, Ordering::SeqCst)
            .ok()
            .map(|_| pack_result(TAG_COUNT, val))
    }

    /// Everyone in an eliminated tree reports the same plausible value (the
    /// paper's interleaved inc/dec ordering); a counted tree's members get
    /// consecutive prefixes.
    fn distribute(&self, result: u64, delta: i64, children: impl Iterator<Item = usize>) -> i64 {
        let (tag, base) = unpack_result(result);
        for (k, child) in children.enumerate() {
            let v = if tag == TAG_ELIM {
                base
            } else {
                base + (delta << k)
            };
            self.funnel.deliver(child, pack_result(tag, v));
        }
        self.bounds.clamp(base)
    }
}

impl SharedCounter for FunnelCounter {
    fn fetch_inc(&self, tid: usize) -> i64 {
        self.funnel.operate(self, tid, 1, ())
    }

    fn fetch_dec(&self, tid: usize) -> i64 {
        self.funnel.operate(self, tid, -1, ())
    }

    /// The funnel walk's direct path carrying `sum = delta`: the caller is
    /// the root of a tree that arrived combined, so there is nothing for
    /// the layers to add. `location` is never published — it stays frozen,
    /// nobody can capture this thread, and no layer ever holds a tree of a
    /// size F1 does not allow.
    fn fetch_add(&self, tid: usize, delta: i64) -> i64 {
        self.funnel.check_tid(tid);
        let mut retries = 0u64;
        // ORDERING: SeqCst like every access to `central`.
        let mut val = self.central.load(Ordering::SeqCst);
        loop {
            let new = self.bounds.clamp(val.saturating_add(delta));
            // ORDERING: SeqCst CAS on the word every root serialises on, as
            // in `central`: the increment that follows a bin insert releases
            // it to the decrement that claims it. A CAS that changes nothing
            // (saturated, or `delta` = 0) still validates the read.
            match self
                .central
                .compare_exchange(val, new, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => break,
                Err(now) => {
                    retries += 1;
                    val = now;
                }
            }
        }
        if retries > 0 {
            if let Some(sink) = &self.funnel.sink {
                sink.event_n(CounterEvent::CasRetry, retries);
            }
        }
        val
    }

    fn value(&self) -> i64 {
        // ORDERING: SeqCst like every access to `central`; a racy snapshot,
        // exact at quiescence.
        self.central.load(Ordering::SeqCst)
    }
}

impl std::fmt::Debug for FunnelCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FunnelCounter")
            .field("value", &self.value())
            .field("layers", &self.funnel.layers.len())
            .field("max_threads", &self.max_threads())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcs::tests::join_within;
    use crate::probe::tests::TestSink;
    use std::sync::{Arc, Barrier};
    use std::thread;
    use std::time::Duration;

    fn cfg(threads: usize) -> FunnelConfig {
        FunnelConfig::for_threads(threads)
    }

    /// Two threads, `n` operations each on one unbounded counter from 0
    /// behind a start barrier. Before every operation thread `t` pins its
    /// adaption to the busy (`true`) or quiet end as `busy(t, i)` says;
    /// operation `i` of thread `t` is an increment when `(i / 2 + t)` is
    /// even, so every thread does both kinds in both states and the exact
    /// final value is 0 — `also(counter, t, i)`, run after each operation,
    /// must leave it so. Returns what the sink counted.
    fn pinned_pair(
        n: usize,
        busy: fn(usize, usize) -> bool,
        also: fn(&FunnelCounter, usize, usize),
    ) -> Arc<TestSink> {
        let sink = Arc::new(TestSink::default());
        let c = Arc::new(FunnelCounter::with_sink(
            0,
            Bounds::unbounded(),
            cfg(2),
            Some(sink.clone()),
        ));
        let start = Arc::new(Barrier::new(2));
        let handles = (0..2)
            .map(|t| {
                let (c, start) = (Arc::clone(&c), Arc::clone(&start));
                thread::spawn(move || {
                    start.wait();
                    for i in 0..n {
                        c.funnel.adapt(t).pin(c.funnel.layers.len(), busy(t, i));
                        if (i / 2 + t) % 2 == 0 {
                            c.fetch_inc(t);
                        } else {
                            c.fetch_dec(t);
                        }
                        also(&c, t, i);
                    }
                })
            })
            .collect();
        join_within(handles, Duration::from_secs(60));
        assert_eq!(c.value(), 0, "every operation applied exactly once");
        sink
    }

    #[test]
    fn the_funnel_still_funnels_when_the_budget_says_so() {
        // Left to adapt, two threads on this kind of host go direct and
        // never meet; pinned busy, the collision machinery must work.
        let sink = pinned_pair(50_000, |_, _| true, |_, _, _| ());
        assert!(sink.get(CounterEvent::FunnelCollision) > 0);
        assert!(sink.get(CounterEvent::ElimHit) > 0);
    }

    #[test]
    fn a_direct_operation_is_never_captured_through_a_stale_slot() {
        // Thread 0 alternates layered and direct operations, so the
        // width-1 slots keep naming it while it is on the direct path with
        // `location` frozen; thread 1 stays in the layers and keeps reading
        // that stale id. A capture then would apply the operation twice.
        let sink = pinned_pair(50_000, |t, i| t == 1 || i % 2 == 0, |_, _, _| ());
        assert!(sink.get(CounterEvent::FunnelCollision) > 0);
    }

    #[test]
    fn fetch_add_meets_layered_singles_only_at_the_central_value() {
        // Both threads run singles pinned busy (through the layers,
        // colliding) and, every fourth operation, a `fetch_add` of ±5 that
        // goes to the central value alone. Were a `fetch_add` capturable,
        // or a tree applied twice, the sum would not come back to 0.
        let sink = pinned_pair(
            40_000,
            |_, _| true,
            |c, t, i| match i % 8 {
                0 => drop(c.fetch_add(t, 5)),
                4 => drop(c.fetch_add(t, -5)),
                _ => (),
            },
        );
        assert!(sink.get(CounterEvent::FunnelCollision) > 0);
    }

    #[test]
    fn sequential_inc_dec() {
        let c = FunnelCounter::new(0, Bounds::non_negative(), cfg(1));
        assert_eq!(c.fetch_inc(0), 0);
        assert_eq!(c.fetch_inc(0), 1);
        assert_eq!(c.value(), 2);
        assert_eq!(c.fetch_dec(0), 2);
        assert_eq!(c.fetch_dec(0), 1);
        assert_eq!(c.fetch_dec(0), 0);
        assert_eq!(c.fetch_dec(0), 0);
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn zero_layer_funnel_goes_straight_to_the_central_value() {
        let no_layers = FunnelConfig {
            widths: vec![],
            ..FunnelConfig::for_threads(2)
        };
        let c = FunnelCounter::new(10, Bounds::unbounded(), no_layers);
        assert_eq!(c.fetch_dec(0), 10);
        assert_eq!(c.fetch_inc(1), 9);
        assert_eq!(c.value(), 10);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn tid_out_of_range_panics() {
        let c = FunnelCounter::new(0, Bounds::unbounded(), cfg(2));
        c.fetch_inc(2);
    }

    #[test]
    fn concurrent_increments_all_counted() {
        const T: usize = 8;
        const N: i64 = 500;
        let c = Arc::new(FunnelCounter::new(0, Bounds::unbounded(), cfg(T)));
        let handles: Vec<_> = (0..T)
            .map(|t| {
                let c = Arc::clone(&c);
                thread::spawn(move || {
                    for _ in 0..N {
                        c.fetch_inc(t);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.value(), T as i64 * N);
    }

    #[test]
    fn concurrent_mixed_balances_via_elimination() {
        // Equal inc/dec counts: the central value must return to start even
        // though many pairs eliminate without touching it.
        const T: usize = 8;
        const N: usize = 500;
        let c = Arc::new(FunnelCounter::new(1_000, Bounds::unbounded(), cfg(T)));
        let handles: Vec<_> = (0..T)
            .map(|t| {
                let c = Arc::clone(&c);
                thread::spawn(move || {
                    for _ in 0..N {
                        if t % 2 == 0 {
                            c.fetch_inc(t);
                        } else {
                            c.fetch_dec(t);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.value(), 1_000);
    }

    #[test]
    fn bounded_dec_never_goes_below_zero() {
        const T: usize = 8;
        const N: usize = 400;
        let c = Arc::new(FunnelCounter::new(0, Bounds::non_negative(), cfg(T)));
        let handles: Vec<_> = (0..T)
            .map(|t| {
                let c = Arc::clone(&c);
                thread::spawn(move || {
                    let mut mins = i64::MAX;
                    for i in 0..N {
                        let v = if (t + i) % 3 == 0 {
                            c.fetch_inc(t)
                        } else {
                            c.fetch_dec(t)
                        };
                        mins = mins.min(v);
                    }
                    assert!(mins >= 0, "returned value below the lower bound");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(c.value() >= 0);
    }

    #[test]
    fn returned_values_are_within_plausible_range() {
        // With I incs and D decs from initial V (unbounded), every returned
        // value must lie in [V - D, V + I].
        const T: usize = 6;
        const N: usize = 300;
        let c = Arc::new(FunnelCounter::new(0, Bounds::unbounded(), cfg(T)));
        let handles: Vec<_> = (0..T)
            .map(|t| {
                let c = Arc::clone(&c);
                thread::spawn(move || {
                    for i in 0..N {
                        let v = if i % 2 == 0 {
                            c.fetch_inc(t)
                        } else {
                            c.fetch_dec(t)
                        };
                        let limit = (T * N) as i64;
                        assert!(v.abs() <= limit);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.value(), 0);
    }
}
