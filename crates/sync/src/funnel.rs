//! Combining-funnel shared counter (Shavit & Zemach, PODC 1998/1999).
//!
//! A funnel is a stack of *combining layers* — arrays of slots through which
//! concurrent operations locate one another. A processor entering a layer
//! swaps its id into a random slot, reads out whoever was there, and tries
//! to *collide*: it freezes itself and the partner with compare-and-swap on
//! per-thread `location` words. Colliding operations of the same kind
//! combine into a tree whose root carries the summed delta forward;
//! colliding operations of opposite kinds *eliminate* and complete without
//! ever touching the central value. Roots that exit the funnel apply their
//! whole tree to the central counter with a single compare-and-swap and then
//! distribute results back down the tree.
//!
//! Layer discipline keeps trees homogeneous, which §3.3 of the paper shows
//! is required for *bounded* operations (bounded ops do not commute): a tree
//! at layer `d` always has size `2^d` and contains a single operation kind,
//! because advancement to layer `d+1` happens only after combining with an
//! equal-size, same-kind tree at layer `d`.
//!
//! How wide, how deep and how long a thread lingers in the layers is its
//! own local decision ([`crate::adaption`]). A thread that has met no
//! contention lately skips them: its `location` stays frozen, so nobody can
//! capture it, and the operation is one compare-and-swap on the central
//! value.
//!
//! This implementation is quiescently consistent, like the paper's.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use funnelpq_util::{Backoff, CachePadded};

use crate::adaption::{self, Adaption, Signals, MAX_LAYERS};
use crate::counter::{Bounds, SharedCounter};
use crate::probe::{CounterEvent, SinkRef};
use crate::slots::SlotArray;

/// Tuning parameters for a combining funnel.
#[derive(Debug, Clone, PartialEq)]
pub struct FunnelConfig {
    /// Width of each combining layer, outermost first. The number of layers
    /// is `widths.len()`; a tree exiting layer `d` has `2^d` operations.
    pub widths: Vec<usize>,
    /// Collision attempts per layer before trying the central value.
    pub attempts: u32,
    /// Maximum number of registered threads (dense thread ids `0..max`).
    pub max_threads: usize,
}

impl FunnelConfig {
    /// A reasonable default for up to `max_threads` threads: two layers
    /// sized to the thread count.
    pub fn for_threads(max_threads: usize) -> Self {
        let w0 = (max_threads / 2).max(1);
        let w1 = (max_threads / 4).max(1);
        FunnelConfig {
            widths: vec![w0, w1],
            attempts: 3,
            max_threads,
        }
    }

    pub(crate) fn validate(&self) {
        assert!(self.max_threads > 0, "max_threads must be positive");
        assert!(
            self.widths.len() <= MAX_LAYERS,
            "at most {MAX_LAYERS} combining layers"
        );
        assert!(
            self.widths.iter().all(|&w| w > 0),
            "layer widths must be positive"
        );
        assert!(self.attempts > 0, "attempts must be positive");
    }
}

/// `location` states beyond layer indices.
pub(crate) const LOC_FROZEN: u64 = u64::MAX - 1;

/// Freezes a `location` that still says layer `d`. Every way out of a
/// published layer is this CAS on the one word — the owner's, when it
/// collides or goes central, and a partner's capture — so exactly one wins.
pub(crate) fn freeze(location: &AtomicU64, d: usize) -> bool {
    // ORDERING: SeqCst RMW, the last leg of the Dekker-style trio (owner's
    // `location` store → slot swap → this CAS). A partner's success
    // acquires the owner's publish (its `sum`, its chain); the owner's
    // failure sends it to `await_result`.
    location
        .compare_exchange(d as u64, LOC_FROZEN, Ordering::SeqCst, Ordering::SeqCst)
        .is_ok()
}
/// Result word states/tags.
const RES_NONE: u64 = 0;
const TAG_COUNT: u64 = 1;
const TAG_ELIM: u64 = 2;

fn pack_result(tag: u64, v: i64) -> u64 {
    debug_assert!(tag == TAG_COUNT || tag == TAG_ELIM);
    ((v as u64) << 2) | tag
}

fn unpack_result(x: u64) -> (u64, i64) {
    (x & 0b11, (x as i64) >> 2)
}

/// Per-thread collision record. The children list lives in the operation's
/// stack frame.
struct Record {
    /// Layer index this thread is combinable at, or [`LOC_FROZEN`] — which
    /// it is between operations and throughout one that never enters the
    /// layers.
    location: CachePadded<AtomicU64>,
    /// Signed size of the tree rooted here (+k for k increments, -k for k
    /// decrements). Written before `location` is published, stable while
    /// frozen.
    sum: AtomicI64,
    /// Packed result delivered by whoever captured us; [`RES_NONE`] between
    /// operations (the captured thread swaps it back).
    result: AtomicU64,
    /// Owner-only width / depth / wait adaption.
    adapt: Adaption,
}

impl Record {
    fn new(tid: usize) -> Self {
        Record {
            location: CachePadded::new(AtomicU64::new(LOC_FROZEN)),
            sum: AtomicI64::new(0),
            result: AtomicU64::new(RES_NONE),
            adapt: Adaption::new(tid),
        }
    }
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
    cfg: FunnelConfig,
    bounds: Bounds,
    central: CachePadded<AtomicI64>,
    records: Box<[Record]>,
    /// `layers[d]` slot `i` holds `tid + 1`, or 0 for nobody.
    layers: Vec<SlotArray>,
    sink: Option<SinkRef>,
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
        cfg.validate();
        assert_eq!(
            bounds.clamp(initial),
            initial,
            "initial value out of bounds"
        );
        let records = (0..cfg.max_threads).map(Record::new).collect();
        let layers = cfg.widths.iter().map(|&w| SlotArray::new(w)).collect();
        FunnelCounter {
            cfg,
            bounds,
            central: CachePadded::new(AtomicI64::new(initial)),
            records,
            layers,
            sink,
        }
    }

    /// The configured bounds.
    pub fn bounds(&self) -> Bounds {
        self.bounds
    }

    /// Maximum number of thread ids this counter accepts.
    pub fn max_threads(&self) -> usize {
        self.cfg.max_threads
    }

    /// The funnel traversal shared by both operation kinds.
    /// `delta` is +1 (increment) or -1 (decrement).
    fn operate(&self, tid: usize, delta: i64) -> i64 {
        assert!(tid < self.cfg.max_threads, "tid {tid} out of range");
        let me = &self.records[tid];
        let levels = self.layers.len();
        let mut sum = delta;
        // Layers advanced through so far, each by capturing one child:
        // `children[k]` is the tid captured at layer `k`, whose tree — like
        // ours at the time — held `2^k` operations of our kind.
        let mut d = 0usize;
        let mut children = [0usize; MAX_LAYERS];
        let mut max_d = me.adapt.depth(levels);
        let mut sig = Signals::default();
        // Operations eliminated by this op acting as the colliding root
        // (covers both trees; members never report themselves).
        let mut elim_count = 0u64;

        let (tag, base) = 'mainloop: loop {
            // The layers, when the adaption wants them and the wait budget
            // is worth a collision attempt. Otherwise `location` stays
            // frozen and the central CAS below is the whole operation.
            if d < max_d && me.adapt.wait(d) > 0 {
                // ORDERING: Relaxed; published by the `location` store
                // below, which a capturer's successful CAS acquires.
                me.sum.store(sum, Ordering::Relaxed);
                // ORDERING: SeqCst publish, the first leg of the Dekker-style
                // trio (my `location` store → slot swap → partner's CAS on my
                // `location`): whoever reads my id out of a slot must find me
                // at `d`; the store also releases `sum` to that CAS.
                me.location.store(d as u64, Ordering::SeqCst);
                let mut n = 0;
                while n < self.cfg.attempts && d < max_d {
                    n += 1;
                    sig.attempts += 1;
                    let layer = &self.layers[d];
                    // ORDERING: AcqRel; the release half orders my publish
                    // before my id becomes readable, the acquire half pairs
                    // with the release half of the swap that wrote `q`.
                    let q = layer.swap(me.adapt.slot(layer.len()), tid + 1, Ordering::AcqRel);
                    if q != 0 && q - 1 != tid {
                        let qr = &self.records[q - 1];
                        // Freeze myself so nobody captures me mid-collision.
                        if !freeze(&me.location, d) {
                            sig.captured = true;
                            break 'mainloop self.await_result(tid);
                        }
                        if freeze(&qr.location, d) {
                            sig.collisions_won += 1;
                            // q is frozen at our layer, so its tree has our
                            // size.
                            // ORDERING: Relaxed; acquired by `freeze` and
                            // stable while q is frozen.
                            let qsum = qr.sum.load(Ordering::Relaxed);
                            debug_assert_eq!(qsum.abs(), sum.abs());
                            if qsum == -sum {
                                // Reversing operations: eliminate both trees.
                                // ORDERING: SeqCst like every access to
                                // `central`; any recent value would do.
                                let val = self.central.load(Ordering::SeqCst);
                                // Pick a plausible adjacent (inc, dec) pairing
                                // that stays within bounds: dec observes `dv`,
                                // inc observes `dv - 1`.
                                let mut dv = val;
                                if self.bounds.lo == Some(dv) {
                                    dv += 1;
                                }
                                if let Some(hi) = self.bounds.hi {
                                    dv = dv.min(hi);
                                }
                                let (my_v, q_v) = if sum < 0 { (dv, dv - 1) } else { (dv - 1, dv) };
                                elim_count = sum.unsigned_abs() * 2;
                                self.deliver(q - 1, pack_result(TAG_ELIM, q_v));
                                break 'mainloop (TAG_ELIM, my_v);
                            }
                            // Same kind: combine; q's tree becomes our child.
                            sum += qsum;
                            children[d] = q - 1;
                            d += 1;
                            n = 0;
                        }
                        // Captured q or not, (re)publish at the layer we are
                        // now at; having advanced, collide there before
                        // waiting.
                        // ORDERING: Relaxed, released by the store below.
                        me.sum.store(sum, Ordering::Relaxed);
                        // ORDERING: SeqCst publish, as on entry.
                        me.location.store(d as u64, Ordering::SeqCst);
                        if n == 0 {
                            continue;
                        }
                    }
                    // Delay, watching for someone to capture us.
                    for _ in 0..me.adapt.wait(d) {
                        // ORDERING: SeqCst read of the word partners CAS;
                        // a change only sends me to `await_result`, whose
                        // swap does the synchronising.
                        if me.location.load(Ordering::SeqCst) != d as u64 {
                            sig.captured = true;
                            break 'mainloop self.await_result(tid);
                        }
                        std::hint::spin_loop();
                    }
                    sig.waits_expired += 1;
                }
                // Leave the layers, unless a partner got there first.
                if !freeze(&me.location, d) {
                    sig.captured = true;
                    break 'mainloop self.await_result(tid);
                }
            }
            // Frozen: apply the whole tree to the central value.
            // ORDERING: SeqCst, with the CAS below.
            let val = self.central.load(Ordering::SeqCst);
            let new = self.bounds.clamp(val + sum);
            // ORDERING: SeqCst CAS on the one word every root serialises
            // on. What callers need is the release/acquire edge between an
            // increment and the decrement that claims it (`CounterTree`:
            // bin insert → inc, dec → bin delete); kept SeqCst because on
            // x86 it is the same instruction.
            if self
                .central
                .compare_exchange(val, new, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                break 'mainloop (TAG_COUNT, val);
            }
            // Central contention: allow deeper combining on retry.
            sig.central_fails += 1;
            max_d = (max_d + 1).min(levels);
        };

        let (grows, shrinks) = me.adapt.update(levels, &sig);
        // One batched report per operation. Eliminated / centrally-applied
        // operation totals are reported by the tree root only, so sinks see
        // each operation exactly once.
        if let Some(sink) = &self.sink {
            let applied = !sig.captured && tag == TAG_COUNT && d > 0;
            adaption::report(
                sink,
                [
                    (CounterEvent::FunnelCollision, sig.collisions_won.into()),
                    (CounterEvent::CasRetry, sig.central_fails.into()),
                    (CounterEvent::ElimHit, elim_count),
                    (
                        CounterEvent::ElimMiss,
                        if applied { sum.unsigned_abs() } else { 0 },
                    ),
                    (CounterEvent::AdaptGrow, grows),
                    (CounterEvent::AdaptShrink, shrinks),
                ],
            );
        }

        // Distribute results to the trees we captured. Everyone in an
        // eliminated tree reports the same plausible value (the paper's
        // interleaved inc/dec ordering); a counted tree's members get
        // consecutive prefixes.
        for (k, &child) in children[..d].iter().enumerate() {
            let before = delta << k;
            let v = if tag == TAG_ELIM { base } else { base + before };
            self.deliver(child, pack_result(tag, v));
        }
        self.bounds.clamp(base)
    }

    /// Hands a captured (frozen, waiting) thread its result.
    fn deliver(&self, child: usize, packed: u64) {
        // ORDERING: Release; pairs with the Acquire swap in `await_result`.
        self.records[child].result.store(packed, Ordering::Release);
    }

    /// Wait (frozen) until our capturer hands us a result.
    fn await_result(&self, tid: usize) -> (u64, i64) {
        let me = &self.records[tid];
        let backoff = Backoff::new();
        loop {
            // ORDERING: Acquire swap; pairs with `deliver`'s Release store
            // and leaves the word `RES_NONE` for the next operation.
            let r = me.result.swap(RES_NONE, Ordering::Acquire);
            if r != RES_NONE {
                return unpack_result(r);
            }
            backoff.snooze();
        }
    }
}

impl SharedCounter for FunnelCounter {
    fn fetch_inc(&self, tid: usize) -> i64 {
        self.operate(tid, 1)
    }

    fn fetch_dec(&self, tid: usize) -> i64 {
        self.operate(tid, -1)
    }

    /// The direct path of `FunnelCounter::operate` carrying `sum = delta`:
    /// the caller is the root of a tree that arrived combined, so there is
    /// nothing for the layers to add. `location` is never published — it
    /// stays frozen, nobody can capture this thread, and no layer ever
    /// holds a tree of a size F1 does not allow.
    fn fetch_add(&self, tid: usize, delta: i64) -> i64 {
        assert!(tid < self.cfg.max_threads, "tid {tid} out of range");
        let mut retries = 0u64;
        // ORDERING: SeqCst like every access to `central`.
        let mut val = self.central.load(Ordering::SeqCst);
        loop {
            let new = self.bounds.clamp(val.saturating_add(delta));
            // ORDERING: SeqCst CAS on the word every root serialises on, as
            // in `operate`: the increment that follows a bin insert releases
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
            if let Some(sink) = &self.sink {
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
            .field("layers", &self.layers.len())
            .field("max_threads", &self.cfg.max_threads)
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
                        c.records[t].adapt.pin(c.layers.len(), busy(t, i));
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
