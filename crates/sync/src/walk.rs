//! The combining-funnel walk (Shavit & Zemach; the paper's §3.1 and
//! Figure 10), written once for [`crate::FunnelCounter`] and
//! [`crate::FunnelStack`].
//!
//! A funnel is a stack of *combining layers*: arrays of slots through which
//! concurrent operations find one another. A thread entering a layer swaps
//! its id into a random slot, reads out whoever was there, and tries to
//! *collide* by freezing itself and the partner with compare-and-swap on
//! their `location` words. Trees of one kind combine, and the root carries
//! the whole tree on; trees of opposite kinds *eliminate* without touching
//! the central object. A root that leaves the layers applies its whole tree
//! in one central step and hands results back down. A tree at layer `d`
//! has size `2^d` and one kind (§3.3: bounded operations need that), since
//! it reaches `d + 1` only by combining with an equal tree at `d`. How far
//! and how long a thread goes into the layers is its own decision
//! ([`crate::adaption`]); one that met nobody lately skips them, `location`
//! frozen, and the operation is the central step alone.
//!
//! [`Funnel`] is everything the two objects share. A [`FunnelObject`]
//! supplies what differs: what a tree carries, how two met trees eliminate
//! or merge, the central section, and how results go down to the children.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

use funnelpq_util::{Backoff, CachePadded};

use crate::adaption::{self, Adaption, Signals, MAX_LAYERS};
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

    fn validate(&self) {
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

/// `location` between operations, throughout one that never enters the
/// layers, and once its owner or a capturer has taken it out of them.
const LOC_FROZEN: u64 = u64::MAX - 1;
/// `result` between operations (the captured thread swaps it back).
const RES_NONE: u64 = 0;

/// Freezes a `location` that still says layer `d`. Every way out of a
/// published layer is this CAS on the one word — the owner's, when it
/// collides or goes central, and a partner's capture — so exactly one wins.
fn freeze(location: &AtomicU64, d: usize) -> bool {
    // ORDERING: SeqCst RMW, the last leg of the Dekker-style trio (owner's
    // `location` store → slot swap → this CAS). A partner's success
    // acquires the owner's publish (its `sum`, its tree); the owner's
    // failure sends it to `await_result`.
    location
        .compare_exchange(d as u64, LOC_FROZEN, Ordering::SeqCst, Ordering::SeqCst)
        .is_ok()
}

/// Where a record keeps what its tree carries besides its size: nothing for
/// the counter, a chain of nodes for the stack. Stored with `Relaxed`
/// stores that the `location` publish releases; a capturer reads it after
/// its successful `freeze`, while the owner is frozen.
pub(crate) trait Carry: Default {
    /// The carried value, as the owning operation holds it.
    type Tree: Copy;
    fn store(&self, tree: Self::Tree);
}

impl Carry for () {
    type Tree = ();
    fn store(&self, _: ()) {}
}

/// What an object reached through a [`Funnel`] adds to the walk. Results
/// travel as one word, a tag in the low bits.
pub(crate) trait FunnelObject {
    type Carry: Carry;
    type Output;
    /// The central section is a lock (the stack), not one CAS (the counter).
    /// A contended CAS is retried, through the layers while they are open,
    /// and each failure counts as a sign of company; a contended lock is
    /// queued on, after one pass through the layers for an operation that
    /// came straight to it, and counts once. The report carries
    /// `LockAcquire` per section run, or `CasRetry` per failed CAS.
    const LOCKED: bool;
    /// Trees of signed sizes `sum` (ours, carrying `tree`) and `qsum` (a
    /// frozen partner's, carrying `theirs`) met. Reversing trees eliminate:
    /// the result words for ours and for the partner's. Otherwise folds
    /// `theirs` into `tree` and returns `None`; the walk adds the sizes.
    fn meet(
        &self,
        sum: i64,
        qsum: i64,
        tree: &mut <Self::Carry as Carry>::Tree,
        theirs: &Self::Carry,
    ) -> Option<(u64, u64)>;
    /// Applies a whole tree to the central object: the root's result word,
    /// or `None` if contended and not told to `queue` (which only a
    /// [`Self::LOCKED`] object is).
    fn central(&self, sum: i64, tree: <Self::Carry as Carry>::Tree, queue: bool) -> Option<u64>;
    /// Hands each child — the `k`-th captured at layer `k`, `2^k`
    /// operations of kind `delta` — its share of `result` through
    /// [`Funnel::deliver`], and returns the operation's own.
    fn distribute(
        &self,
        result: u64,
        delta: i64,
        children: impl Iterator<Item = usize>,
    ) -> Self::Output;
}

/// Per-thread collision record.
struct Record<C> {
    /// Layer index this thread is combinable at, or [`LOC_FROZEN`].
    location: CachePadded<AtomicU64>,
    /// Signed size of the tree rooted here (+k for k operations of one
    /// kind, -k for k of the other). Written before `location` is
    /// published, stable while frozen.
    sum: AtomicI64,
    /// What the tree carries besides its size.
    carry: C,
    /// Result word delivered by whoever captured us; [`RES_NONE`] between
    /// operations.
    result: AtomicU64,
    /// Owner-only width / depth / wait adaption.
    adapt: Adaption,
    /// Owner-only: the tids the current operation captured, `children[k]`
    /// at layer `k`, each holding `2^k` operations of its kind. Here rather
    /// than in the operation's frame, where zeroing an array costs four
    /// stores that the locked central step of the next direct operation
    /// waits to drain: a tenth of a direct stack push or pop, measured.
    children: [AtomicUsize; MAX_LAYERS],
}

/// One operation's progress through the layers.
struct Walk<T> {
    /// Signed size of the tree, and what it carries besides.
    sum: i64,
    tree: T,
    /// Layers advanced through so far, each by capturing one child.
    d: usize,
    /// Layers this operation is willing to traverse.
    max_d: usize,
    sig: Signals,
    /// Operations eliminated by this op acting as the colliding root
    /// (covers both trees; members never report themselves).
    elim_count: u64,
}

/// How a pass through the layers ended.
enum Pass {
    /// Its owner froze it: on to the central object.
    Left,
    /// A partner froze it: the result comes through `await_result`.
    Captured,
    /// It met a reversing tree: the caller's result word.
    Eliminated(u64),
}

/// The layers, the per-thread records and the walk through them; see the
/// [module docs](self).
pub(crate) struct Funnel<C> {
    pub(crate) cfg: FunnelConfig,
    records: Box<[Record<C>]>,
    /// `layers[d]` slot `i` holds `tid + 1`, or 0 for nobody.
    pub(crate) layers: Vec<SlotArray>,
    pub(crate) sink: Option<SinkRef>,
}

impl<C: Carry> Funnel<C> {
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub(crate) fn new(cfg: FunnelConfig, sink: Option<SinkRef>) -> Self {
        cfg.validate();
        let records = (0..cfg.max_threads)
            .map(|tid| Record {
                location: CachePadded::new(AtomicU64::new(LOC_FROZEN)),
                sum: AtomicI64::new(0),
                carry: C::default(),
                result: AtomicU64::new(RES_NONE),
                adapt: Adaption::new(tid),
                children: Default::default(),
            })
            .collect();
        let layers = cfg.widths.iter().map(|&w| SlotArray::new(w)).collect();
        Funnel {
            cfg,
            records,
            layers,
            sink,
        }
    }

    /// # Panics
    ///
    /// Panics if `tid` is not below `max_threads`.
    pub(crate) fn check_tid(&self, tid: usize) {
        assert!(tid < self.cfg.max_threads, "tid {tid} out of range");
    }

    /// One operation of kind `delta` (±1) carrying `tree`, through the
    /// layers as far as thread `tid`'s adaption wants and then to `obj`'s
    /// central section, unless a partner captures or eliminates it first.
    pub(crate) fn operate<O>(&self, obj: &O, tid: usize, delta: i64, tree: C::Tree) -> O::Output
    where
        O: FunnelObject<Carry = C>,
    {
        self.check_tid(tid);
        let me = &self.records[tid];
        let levels = self.layers.len();
        let mut w = Walk {
            sum: delta,
            tree,
            d: 0,
            max_d: me.adapt.depth(levels),
            sig: Signals::default(),
            elim_count: 0,
        };
        // Whether the tree was applied at the central object, and whether
        // the next central step should wait rather than try.
        let (mut central, mut queue) = (false, false);
        let result = 'walk: {
            loop {
                // The layers, when the adaption wants them and the wait
                // budget is worth a collision attempt. Otherwise `location`
                // stays frozen and the central step is the whole operation.
                if !queue && w.d < w.max_d && me.adapt.wait(w.d) > 0 {
                    match self.pass(obj, me, tid, &mut w) {
                        Pass::Left => {}
                        Pass::Captured => break,
                        Pass::Eliminated(mine) => break 'walk mine,
                    }
                }
                // Frozen: apply the whole tree to the central object.
                if let Some(result) = obj.central(w.sum, w.tree, queue) {
                    central = true;
                    break 'walk result;
                }
                // Central contention: allow deeper combining on the retry,
                // and queue on a lock once the layers have had their pass
                // (`FunnelObject::LOCKED`).
                let sig = &mut w.sig;
                sig.central_fails = if O::LOCKED { 1 } else { sig.central_fails + 1 };
                w.max_d = (w.max_d + 1).min(levels);
                let layers_open = w.d < w.max_d && me.adapt.wait(w.d) > 0;
                queue = O::LOCKED && (sig.attempts > 0 || !layers_open);
            }
            // A partner froze us: our tree is its child now, and it hands
            // us our result.
            w.sig.captured = true;
            self.await_result(me)
        };

        let sig = &w.sig;
        let (grows, shrinks) = me.adapt.update(levels, sig);
        // One batched report per operation. Eliminated / centrally-applied
        // operation totals are reported by the tree root only, so sinks see
        // each operation exactly once.
        if let Some(sink) = &self.sink {
            let applied = central && w.d > 0;
            adaption::report(
                sink,
                [
                    (CounterEvent::FunnelCollision, sig.collisions_won.into()),
                    if O::LOCKED {
                        (CounterEvent::LockAcquire, central.into())
                    } else {
                        (CounterEvent::CasRetry, sig.central_fails.into())
                    },
                    (CounterEvent::ElimHit, w.elim_count),
                    (
                        CounterEvent::ElimMiss,
                        if applied { w.sum.unsigned_abs() } else { 0 },
                    ),
                    (CounterEvent::AdaptGrow, grows),
                    (CounterEvent::AdaptShrink, shrinks),
                ],
            );
        }
        // ORDERING: owner-only words; Relaxed, nobody else reads them.
        let children = me.children[..w.d].iter().map(|c| c.load(Ordering::Relaxed));
        obj.distribute(result, delta, children)
    }

    /// One pass through the layers: publish, up to `attempts` collision
    /// attempts per layer, each followed by a watched wait, then leave. Out
    /// of line, so an operation that skips the layers pays nothing for it:
    /// inlined, its loop invariants are hoisted and spilled ahead of every
    /// operation's central step.
    #[inline(never)]
    fn pass<O>(&self, obj: &O, me: &Record<C>, tid: usize, w: &mut Walk<C::Tree>) -> Pass
    where
        O: FunnelObject<Carry = C>,
    {
        self.publish(me, w.d, w.sum, w.tree);
        let mut n = 0;
        while n < self.cfg.attempts && w.d < w.max_d {
            n += 1;
            w.sig.attempts += 1;
            let layer = &self.layers[w.d];
            // ORDERING: AcqRel; the release half orders my publish before my
            // id becomes readable, the acquire half pairs with the release
            // half of the swap that wrote `q`.
            let q = layer.swap(me.adapt.slot(layer.len()), tid + 1, Ordering::AcqRel);
            if q != 0 && q - 1 != tid {
                let qr = &self.records[q - 1];
                // Freeze myself so nobody captures me mid-collision.
                if !freeze(&me.location, w.d) {
                    return Pass::Captured;
                }
                if freeze(&qr.location, w.d) {
                    w.sig.collisions_won += 1;
                    // q is frozen at our layer, so its tree has our size.
                    // ORDERING: Relaxed; acquired by `freeze` and stable
                    // while q is frozen.
                    let qsum = qr.sum.load(Ordering::Relaxed);
                    debug_assert_eq!(qsum.abs(), w.sum.abs());
                    if let Some((mine, theirs)) = obj.meet(w.sum, qsum, &mut w.tree, &qr.carry) {
                        w.elim_count = w.sum.unsigned_abs() * 2;
                        self.deliver(q - 1, theirs);
                        return Pass::Eliminated(mine);
                    }
                    // Same kind: q's tree became our child.
                    // ORDERING: owner-only word; Relaxed, nobody else reads
                    // it.
                    me.children[w.d].store(q - 1, Ordering::Relaxed);
                    w.sum += qsum;
                    w.d += 1;
                    n = 0;
                }
                // Captured q or not, (re)publish at the layer we are now at;
                // having advanced, collide there before waiting.
                self.publish(me, w.d, w.sum, w.tree);
                if n == 0 {
                    continue;
                }
            }
            // Delay, watching for someone to capture us.
            for _ in 0..me.adapt.wait(w.d) {
                // ORDERING: SeqCst read of the word partners CAS; a change
                // only sends me to `await_result`, whose swap does the
                // synchronising.
                if me.location.load(Ordering::SeqCst) != w.d as u64 {
                    return Pass::Captured;
                }
                std::hint::spin_loop();
            }
            w.sig.waits_expired += 1;
        }
        // Leave the layers, unless a partner got there first.
        if freeze(&me.location, w.d) {
            Pass::Left
        } else {
            Pass::Captured
        }
    }

    /// Makes `me` capturable at layer `d` with the given tree.
    fn publish(&self, me: &Record<C>, d: usize, sum: i64, tree: C::Tree) {
        // ORDERING: Relaxed (`sum` and the carry); published by the
        // `location` store below, which a capturer's successful CAS
        // acquires.
        me.sum.store(sum, Ordering::Relaxed);
        me.carry.store(tree);
        // ORDERING: SeqCst publish, the first leg of the Dekker-style trio
        // (my `location` store → slot swap → partner's CAS on my
        // `location`): whoever reads my id out of a slot must find me at
        // `d`, and the store releases the tree above (and a chain's links)
        // to that CAS.
        me.location.store(d as u64, Ordering::SeqCst);
    }

    /// Hands a captured (frozen, waiting) thread its result word.
    pub(crate) fn deliver(&self, child: usize, result: u64) {
        debug_assert_ne!(result, RES_NONE);
        // ORDERING: Release (a chain's links go with it); pairs with the
        // Acquire swap in `await_result`.
        self.records[child].result.store(result, Ordering::Release);
    }

    /// Waits (frozen) until our capturer hands us a result word.
    fn await_result(&self, me: &Record<C>) -> u64 {
        let backoff = Backoff::new();
        loop {
            // ORDERING: Acquire swap; pairs with `deliver`'s Release store
            // and leaves the word `RES_NONE` for the next operation.
            let r = me.result.swap(RES_NONE, Ordering::Acquire);
            if r != RES_NONE {
                return r;
            }
            backoff.snooze();
        }
    }
}

#[cfg(test)]
impl<C> Funnel<C> {
    /// Thread `tid`'s adaption state, for tests that pin it.
    pub(crate) fn adapt(&self, tid: usize) -> &Adaption {
        &self.records[tid].adapt
    }
}
