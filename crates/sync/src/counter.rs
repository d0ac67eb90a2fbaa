//! Shared counters: the abstract operations (Figure 1 of the paper) and the
//! non-combining locked implementation used as the baseline.
//!
//! A *counter* holds an integer and supports fetch-and-increment and
//! fetch-and-decrement; either direction may be *bounded*, meaning the
//! counter never moves past the bound and saturated operations return the
//! bound. The paper's tree-based queues need an unbounded increment and a
//! decrement bounded below by zero.

use funnelpq_util::CachePadded;

use crate::probe::SinkRef;
use crate::ttas::TtasMutex;

/// Inclusive bounds a counter's value must stay within.
///
/// `None` means unbounded in that direction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Bounds {
    /// Lower bound: decrements at `lo` return `lo` and do not move the value.
    pub lo: Option<i64>,
    /// Upper bound: increments at `hi` return `hi` and do not move the value.
    pub hi: Option<i64>,
}

impl Bounds {
    /// No bounds in either direction.
    pub fn unbounded() -> Self {
        Bounds::default()
    }

    /// Bounded below by zero — what the priority-queue trees use.
    pub fn non_negative() -> Self {
        Bounds {
            lo: Some(0),
            hi: None,
        }
    }

    pub(crate) fn clamp(&self, v: i64) -> i64 {
        let mut v = v;
        if let Some(lo) = self.lo {
            v = v.max(lo);
        }
        if let Some(hi) = self.hi {
            v = v.min(hi);
        }
        v
    }
}

/// A shared counter supporting (possibly bounded) fetch-and-increment and
/// fetch-and-decrement, accessed by registered thread ids.
///
/// `tid` is a small dense thread index below the structure's configured
/// maximum; concurrent callers must use distinct `tid`s (a shared `tid`
/// cannot corrupt memory but can produce nonsense results).
pub trait SharedCounter: Send + Sync {
    /// Adds one (unless at the upper bound); returns the previous value.
    fn fetch_inc(&self, tid: usize) -> i64;
    /// Subtracts one (unless at the lower bound); returns the previous
    /// value. A return equal to the lower bound means nothing was
    /// decremented.
    fn fetch_dec(&self, tid: usize) -> i64;
    /// Adds `delta` (either sign), stopping at a bound; returns the
    /// previous value, so the amount actually applied is
    /// `clamp(prev + delta) - prev`. This is what the root of a combining
    /// tree of `|delta|` same-kind operations does to the central value,
    /// for a caller that arrives with the tree already combined (a batch).
    fn fetch_add(&self, tid: usize, delta: i64) -> i64;
    /// Current value. Only meaningful at quiescence.
    fn value(&self) -> i64;
}

/// Counter protected by a lock — the implementation the paper's
/// `SimpleTree` uses at every node and `FunnelTree` uses at its deeper,
/// low-traffic nodes. The paper's lock is MCS, and the simulated twin keeps
/// it; natively it is a padded [`TtasMutex`], which on a host with a handful
/// of cores hands a short section over faster than a FIFO queue does.
///
/// # Examples
///
/// ```
/// use funnelpq_sync::{Bounds, LockedCounter, SharedCounter};
/// let c = LockedCounter::new(5, Bounds::unbounded());
/// assert_eq!(c.fetch_dec(0), 5);
/// assert_eq!(c.value(), 4);
/// ```
#[derive(Debug)]
pub struct LockedCounter {
    // Padded because the tree queues allocate these in dense per-node
    // arrays: without it, a thread spinning on one node's lock word drags
    // the neighbouring nodes' lines through the coherence protocol.
    val: CachePadded<TtasMutex<i64>>,
    bounds: Bounds,
    /// Where acquisitions are reported ([`TtasMutex::lock_noting`]).
    sink: Option<SinkRef>,
}

impl LockedCounter {
    /// Creates a counter with the given initial value and bounds.
    ///
    /// # Panics
    ///
    /// Panics if `initial` lies outside `bounds`.
    pub fn new(initial: i64, bounds: Bounds) -> Self {
        Self::with_sink(initial, bounds, None)
    }

    /// Like [`LockedCounter::new`], reporting each lock acquisition as a
    /// [`CounterEvent::LockAcquire`](crate::CounterEvent::LockAcquire) to `sink`.
    ///
    /// # Panics
    ///
    /// Panics if `initial` lies outside `bounds`.
    pub fn with_sink(initial: i64, bounds: Bounds, sink: Option<SinkRef>) -> Self {
        assert_eq!(
            bounds.clamp(initial),
            initial,
            "initial value out of bounds"
        );
        LockedCounter {
            val: CachePadded::new(TtasMutex::new(initial)),
            bounds,
            sink,
        }
    }
}

impl SharedCounter for LockedCounter {
    fn fetch_inc(&self, _tid: usize) -> i64 {
        self.val.lock_noting(self.sink.as_ref(), |v| {
            let old = *v;
            if self.bounds.hi != Some(old) {
                *v = old + 1;
            }
            old
        })
    }

    fn fetch_dec(&self, _tid: usize) -> i64 {
        self.val.lock_noting(self.sink.as_ref(), |v| {
            let old = *v;
            if self.bounds.lo != Some(old) {
                *v = old - 1;
            }
            old
        })
    }

    fn fetch_add(&self, _tid: usize, delta: i64) -> i64 {
        self.val.lock_noting(self.sink.as_ref(), |v| {
            let old = *v;
            *v = self.bounds.clamp(old.saturating_add(delta));
            old
        })
    }

    fn value(&self) -> i64 {
        self.val.lock_noting(self.sink.as_ref(), |v| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    fn sequential_contract(c: &dyn SharedCounter) {
        assert_eq!(c.value(), 0);
        assert_eq!(c.fetch_inc(0), 0);
        assert_eq!(c.fetch_inc(0), 1);
        assert_eq!(c.fetch_dec(0), 2);
        assert_eq!(c.fetch_dec(0), 1);
        // At lower bound 0: decrement saturates.
        assert_eq!(c.fetch_dec(0), 0);
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn locked_counter_sequential() {
        sequential_contract(&LockedCounter::new(0, Bounds::non_negative()));
    }

    #[test]
    fn locked_counter_notes_every_acquisition() {
        use crate::ttas::tests::LockSink;
        let sink = Arc::new(LockSink::default());
        let c = LockedCounter::with_sink(0, Bounds::non_negative(), Some(sink.clone()));
        sequential_contract(&c);
        // Five steps and two reads; a saturated decrement still locks.
        assert_eq!(sink.acquires(), 7);
        assert_eq!(c.fetch_add(0, 5), 0);
        assert_eq!(sink.acquires(), 8);
    }

    #[test]
    fn upper_bound_saturates() {
        let c = LockedCounter::new(
            0,
            Bounds {
                lo: Some(0),
                hi: Some(2),
            },
        );
        assert_eq!(c.fetch_inc(0), 0);
        assert_eq!(c.fetch_inc(0), 1);
        assert_eq!(c.fetch_inc(0), 2);
        assert_eq!(c.fetch_inc(0), 2);
        assert_eq!(c.value(), 2);
    }

    /// `fetch_add` on a counter built by `make(initial, bounds)`.
    fn fetch_add_contract(make: &dyn Fn(i64, Bounds) -> Box<dyn SharedCounter>) {
        // ±1 is `fetch_inc` / `fetch_dec`, saturation at the floor included.
        let c = make(0, Bounds::non_negative());
        assert_eq!(c.fetch_add(0, 1), 0);
        assert_eq!(c.fetch_inc(0), 1);
        assert_eq!(c.fetch_add(0, -1), 2);
        assert_eq!(c.fetch_dec(0), 1);
        assert_eq!(c.fetch_add(0, -1), 0);
        assert_eq!(c.value(), 0);
        // A delta past the floor applies what fits and reports the rest
        // through the previous value.
        let c = make(3, Bounds::non_negative());
        assert_eq!(c.fetch_add(0, -8), 3);
        assert_eq!(c.value(), 0);
        assert_eq!(c.fetch_add(0, -i64::MAX), 0);
        assert_eq!(c.value(), 0);
        // Likewise at the ceiling.
        let c = make(
            3,
            Bounds {
                lo: Some(0),
                hi: Some(5),
            },
        );
        assert_eq!(c.fetch_add(0, 8), 3);
        assert_eq!(c.fetch_add(0, 1), 5);
        assert_eq!(c.value(), 5);
        // Zero is a read, and an unbounded counter does not overflow.
        assert_eq!(c.fetch_add(0, 0), 5);
        assert_eq!(c.value(), 5);
        let c = make(i64::MAX - 1, Bounds::unbounded());
        assert_eq!(c.fetch_add(0, 7), i64::MAX - 1);
        assert_eq!(c.value(), i64::MAX);
    }

    #[test]
    fn fetch_add_contract_holds_for_both_counters() {
        use crate::{FunnelConfig, FunnelCounter};
        fetch_add_contract(&|v, b| Box::new(LockedCounter::new(v, b)));
        fetch_add_contract(&|v, b| {
            Box::new(FunnelCounter::new(v, b, FunnelConfig::for_threads(2)))
        });
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn initial_out_of_bounds_panics() {
        let _ = LockedCounter::new(-1, Bounds::non_negative());
    }

    fn concurrent_net(c: Arc<dyn SharedCounter>, threads: usize, ops: usize) {
        let mut handles = Vec::new();
        for t in 0..threads {
            let c = Arc::clone(&c);
            handles.push(thread::spawn(move || {
                for i in 0..ops {
                    if (t + i) % 2 == 0 {
                        c.fetch_inc(t);
                    } else {
                        c.fetch_dec(t);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn locked_counter_bounded_never_negative() {
        let c: Arc<dyn SharedCounter> = Arc::new(LockedCounter::new(0, Bounds::non_negative()));
        concurrent_net(Arc::clone(&c), 8, 999);
        assert!(c.value() >= 0);
    }
}
