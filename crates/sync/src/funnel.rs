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
//! This implementation is quiescently consistent, like the paper's.

use std::sync::atomic::{AtomicI64, AtomicU32, AtomicU64, Ordering};

use funnelpq_util::{AtomicRng, Backoff, CachePadded};

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
    /// Spin iterations spent waiting to be collided-with after each attempt,
    /// per layer.
    pub spin: Vec<u32>,
    /// Maximum number of registered threads (dense thread ids `0..max`).
    pub max_threads: usize,
    /// Give every collision slot its own cache line (default `true`).
    /// `false` restores the dense pre-padding layout, where 16 slots share
    /// a padding unit and neighbouring swaps false-share — kept for A/B
    /// measurement.
    pub pad_slots: bool,
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
            spin: vec![64, 128],
            max_threads,
            pad_slots: true,
        }
    }

    pub(crate) fn validate(&self) {
        assert!(self.max_threads > 0, "max_threads must be positive");
        assert_eq!(
            self.widths.len(),
            self.spin.len(),
            "spin must give one value per layer"
        );
        assert!(
            self.widths.iter().all(|&w| w > 0),
            "layer widths must be positive"
        );
        assert!(self.attempts > 0, "attempts must be positive");
    }
}

/// `location` states beyond layer indices.
const LOC_FROZEN: u64 = u64::MAX - 1;
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

/// Per-thread collision record. Shared state only; the children list lives
/// in the operation's stack frame.
struct Record {
    /// Layer index this thread is combinable at, or [`LOC_FROZEN`].
    location: CachePadded<AtomicU64>,
    /// Signed size of the tree rooted here (+k for k increments, -k for k
    /// decrements). Stable while frozen.
    sum: AtomicI64,
    /// Packed result delivered by whoever captured us (or by ourselves).
    result: AtomicU64,
    /// Adaption: fraction of the layer width to use, in 1/256ths.
    width_frac: AtomicU32,
    /// Adaption: how many combining layers to traverse before applying to
    /// the central value (0 = straight to the central CAS). Owner-only.
    depth_pref: AtomicU32,
    /// Per-thread xorshift64* slot-selection stream, seeded from the dense
    /// thread id (owner-only; no TLS lookup per collision attempt).
    rng: AtomicRng,
}

impl Record {
    fn new(tid: usize, levels: u32) -> Self {
        Record {
            location: CachePadded::new(AtomicU64::new(LOC_FROZEN)),
            sum: AtomicI64::new(0),
            result: AtomicU64::new(RES_NONE),
            width_frac: AtomicU32::new(256),
            depth_pref: AtomicU32::new(levels),
            rng: AtomicRng::new(tid as u64),
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
    // Out-of-line so the sink-absent path pays only a not-taken branch.
    #[cold]
    #[inline(never)]
    fn report_batch(
        &self,
        collisions_won: u32,
        central_fails: u32,
        elim_count: u64,
        elim_miss: u64,
        grows: u64,
        shrinks: u64,
    ) {
        let Some(sink) = &self.sink else { return };
        if collisions_won > 0 {
            sink.event_n(CounterEvent::FunnelCollision, u64::from(collisions_won));
        }
        if central_fails > 0 {
            sink.event_n(CounterEvent::CasRetry, u64::from(central_fails));
        }
        if elim_count > 0 {
            sink.event_n(CounterEvent::ElimHit, elim_count);
        }
        if elim_miss > 0 {
            sink.event_n(CounterEvent::ElimMiss, elim_miss);
        }
        if grows > 0 {
            sink.event_n(CounterEvent::AdaptGrow, grows);
        }
        if shrinks > 0 {
            sink.event_n(CounterEvent::AdaptShrink, shrinks);
        }
    }

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
        let levels = cfg.widths.len() as u32;
        let records = (0..cfg.max_threads)
            .map(|tid| Record::new(tid, levels))
            .collect();
        let layers = cfg
            .widths
            .iter()
            .map(|&w| SlotArray::new(w, cfg.pad_slots))
            .collect();
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

    /// Clamp a distributed per-operation return value to the window bounded
    /// operations may report.
    fn clamp_ret(&self, v: i64) -> i64 {
        self.bounds.clamp(v)
    }

    /// The funnel traversal shared by both operation kinds.
    /// `delta` is +1 (increment) or -1 (decrement).
    fn operate(&self, tid: usize, delta: i64) -> i64 {
        assert!(tid < self.cfg.max_threads, "tid {tid} out of range");
        let me = &self.records[tid];
        let mut sum = delta;
        // (child tid, child subtree sum) in capture order.
        let mut children: Vec<(usize, i64)> = Vec::new();
        let mut d: u64 = 0; // current layer
        let levels = self.layers.len() as u64;
        let mut max_d = u64::from(me.depth_pref.load(Ordering::Relaxed)).min(levels);

        // Local adaption bookkeeping.
        let mut attempts_made = 0u32;
        let mut collisions_won = 0u32;
        let mut central_fails = 0u32;
        let mut was_captured = false;
        // Operations eliminated by this op acting as the colliding root
        // (covers both trees; members never report themselves).
        let mut elim_count = 0u64;

        me.sum.store(sum, Ordering::Relaxed);
        me.result.store(RES_NONE, Ordering::Relaxed);
        me.location.store(d, Ordering::SeqCst);

        let (tag, base) = 'mainloop: loop {
            let mut n = 0;
            while n < self.cfg.attempts && d < max_d {
                n += 1;
                attempts_made += 1;
                let layer = &self.layers[d as usize];
                let frac = me.width_frac.load(Ordering::Relaxed) as usize;
                let wid = ((layer.len() * frac) / 256).clamp(1, layer.len());
                let slot = me.rng.below(wid as u64) as usize;
                let q = layer.swap(slot, tid + 1, Ordering::AcqRel);
                if q != 0 && q - 1 != tid {
                    let q = q - 1;
                    // Freeze myself so nobody captures me mid-collision.
                    if me
                        .location
                        .compare_exchange(d, LOC_FROZEN, Ordering::SeqCst, Ordering::SeqCst)
                        .is_err()
                    {
                        // Someone captured me first.
                        was_captured = true;
                        break 'mainloop self.await_result(tid);
                    }
                    let qr = &self.records[q];
                    if qr
                        .location
                        .compare_exchange(d, LOC_FROZEN, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        collisions_won += 1;
                        // q is frozen at our layer, so its tree has our size.
                        let qsum = qr.sum.load(Ordering::SeqCst);
                        debug_assert_eq!(qsum.abs(), sum.abs());
                        if qsum == -sum {
                            // Reversing operations: eliminate both trees.
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
                            qr.result
                                .store(pack_result(TAG_ELIM, q_v), Ordering::SeqCst);
                            break 'mainloop (TAG_ELIM, my_v);
                        }
                        // Same kind: combine; q's tree becomes our child.
                        sum += qsum;
                        me.sum.store(sum, Ordering::SeqCst);
                        children.push((q, qsum));
                        d += 1;
                        me.location.store(d, Ordering::SeqCst);
                        n = 0;
                        continue;
                    }
                    // Failed to capture q: unfreeze, stay at this layer.
                    me.location.store(d, Ordering::SeqCst);
                }
                // Delay, watching for someone to capture us.
                let spin = self.cfg.spin[d as usize];
                for _ in 0..spin {
                    if me.location.load(Ordering::SeqCst) != d {
                        was_captured = true;
                        break 'mainloop self.await_result(tid);
                    }
                    std::hint::spin_loop();
                }
            }
            // Try to apply the whole tree to the central value.
            match me
                .location
                .compare_exchange(d, LOC_FROZEN, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => {
                    let val = self.central.load(Ordering::SeqCst);
                    let new = self.bounds.clamp(val + sum);
                    if self
                        .central
                        .compare_exchange(val, new, Ordering::SeqCst, Ordering::SeqCst)
                        .is_ok()
                    {
                        break 'mainloop (TAG_COUNT, val);
                    }
                    // Central contention: allow deeper combining on retry.
                    central_fails += 1;
                    max_d = (max_d + 1).min(levels);
                    me.location.store(d, Ordering::SeqCst);
                }
                Err(_) => {
                    was_captured = true;
                    break 'mainloop self.await_result(tid);
                }
            }
        };

        // Adapt the slice of the layer widths we use to the observed load.
        let mut grows = 0u64;
        let mut shrinks = 0u64;
        if attempts_made > 0 {
            let frac = me.width_frac.load(Ordering::Relaxed);
            let new = if collisions_won * 2 >= attempts_made {
                (frac.saturating_mul(2)).min(256)
            } else if collisions_won == 0 {
                (frac / 2).max(16)
            } else {
                frac
            };
            match new.cmp(&frac) {
                std::cmp::Ordering::Greater => grows += 1,
                std::cmp::Ordering::Less => shrinks += 1,
                std::cmp::Ordering::Equal => {}
            }
            me.width_frac.store(new, Ordering::Relaxed);
        }
        // Depth adaption: engagement argues for traversing layers; a clean
        // solo pass argues for going straight to the central CAS.
        let engaged = collisions_won > 0 || was_captured || central_fails > 0;
        let dp = me.depth_pref.load(Ordering::Relaxed);
        let new_dp = if engaged {
            (dp + 1).min(levels as u32)
        } else {
            dp.saturating_sub(1)
        };
        match new_dp.cmp(&dp) {
            std::cmp::Ordering::Greater => grows += 1,
            std::cmp::Ordering::Less => shrinks += 1,
            std::cmp::Ordering::Equal => {}
        }
        me.depth_pref.store(new_dp, Ordering::Relaxed);

        // One batched report per operation. Eliminated / centrally-applied
        // operation totals are reported by the tree root only, so sinks see
        // each operation exactly once.
        if self.sink.is_some() {
            self.report_batch(
                collisions_won,
                central_fails,
                elim_count,
                if !was_captured && tag == TAG_COUNT && !children.is_empty() {
                    sum.unsigned_abs()
                } else {
                    0
                },
                grows,
                shrinks,
            );
        }

        // Distribute results to the trees we captured.
        let my_ret = match tag {
            TAG_ELIM => {
                // Everyone in an eliminated tree reports the same plausible
                // value (the paper's interleaved inc/dec ordering).
                for &(child, _) in &children {
                    self.records[child]
                        .result
                        .store(pack_result(TAG_ELIM, base), Ordering::SeqCst);
                }
                self.clamp_ret(base)
            }
            TAG_COUNT => {
                let mut total = delta;
                for &(child, csum) in &children {
                    self.records[child]
                        .result
                        .store(pack_result(TAG_COUNT, base + total), Ordering::SeqCst);
                    total += csum;
                }
                self.clamp_ret(base)
            }
            _ => unreachable!("funnel result tag"),
        };
        my_ret
    }

    /// Wait (frozen) until our capturer hands us a result.
    fn await_result(&self, tid: usize) -> (u64, i64) {
        let me = &self.records[tid];
        let backoff = Backoff::new();
        loop {
            let r = me.result.swap(RES_NONE, Ordering::SeqCst);
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

    fn value(&self) -> i64 {
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
    use std::sync::Arc;
    use std::thread;

    fn cfg(threads: usize) -> FunnelConfig {
        FunnelConfig::for_threads(threads)
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
            spin: vec![],
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
