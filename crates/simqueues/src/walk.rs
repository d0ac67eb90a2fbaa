//! The combining-funnel walk over simulated memory — the paper's Figure 10,
//! written once for [`crate::SimFunnelCounter`] and
//! [`crate::SimFunnelStack`], as `funnelpq_sync`'s native walk is for its
//! two objects, with hooks of the same names.
//!
//! [`SimFunnel`] owns what the two share: the collision layers, one record
//! per processor (`location`, `sum`, the words the tree carries, `result`),
//! the publish and slot swap, freezing and capture, the watched wait,
//! leaving the layers, the central-contention retry, the width and depth
//! adaption, and the result hand-off. A [`FunnelObject`] supplies what
//! differs: what a tree carries, how two met trees eliminate or merge, the
//! central section, and how results go down to the children. Hooks run once
//! per stage of an operation, never once per simulated access: every
//! wrapper future is one more level the executor polls through on each
//! access.

use std::cell::RefCell;
use std::rc::Rc;

use funnelpq_sim::{Addr, Machine, ProcCtx, Word};

use crate::costs;
use crate::funnel::SimFunnelConfig;

const LOC_FROZEN: Word = u64::MAX;
const RES_NONE: Word = 0;

/// What an object reached through a [`SimFunnel`] adds to the walk. A tree
/// carries `CARRY` words besides its size, kept in its root's record
/// between `sum` and `result`. Results travel as one word: a tag in the
/// low two bits, the value above.
pub(crate) trait FunnelObject<const CARRY: usize> {
    /// What one operation returns to its caller.
    type Output;
    /// Trace span around each operation.
    const SPAN: &'static str;
    /// Processor `pid`'s tree (signed size `sum`, carrying `carry`) captured
    /// processor `q`'s (size `qsum`). Trees that eliminate return the
    /// result words for `pid`'s tree and for `q`'s, which the walk writes
    /// to `q`. Otherwise the hook folds `q`'s carry into `carry` and returns
    /// `None`; the walk adds the sizes.
    async fn meet(
        &self,
        ctx: &ProcCtx,
        pid: usize,
        q: usize,
        sum: i64,
        qsum: i64,
        carry: &mut [Word; CARRY],
    ) -> Option<(Word, Word)>;
    /// Applies a whole tree to the central object: the root's result word,
    /// or `None` to retry, and whether the central object was contended
    /// (a sign of company for the depth adaption).
    async fn central(&self, ctx: &ProcCtx, sum: i64, carry: &[Word; CARRY])
        -> (Option<Word>, bool);
    /// Hands each captured child `(pid, qsum)`, in capture order, its share
    /// of `result` and returns the operation's own.
    async fn distribute(
        &self,
        ctx: &ProcCtx,
        result: Word,
        delta: i64,
        children: &[(usize, i64)],
    ) -> Self::Output;
}

/// The layers, the records and the walk; see the [module docs](self).
#[derive(Debug, Clone)]
pub(crate) struct SimFunnel<const CARRY: usize> {
    cfg: Rc<SimFunnelConfig>,
    layers: Rc<Vec<(Addr, usize)>>,
    records: Addr,
    rec_stride: usize,
    /// Per-processor adaption factor in 1/256ths (processor-local state:
    /// the paper keeps `Adaption_factor` in the processor's own record, so
    /// it costs no shared-memory traffic).
    frac: Rc<RefCell<Vec<u64>>>,
    /// Per-processor depth preference: how many combining layers to
    /// traverse before applying to the central object (the paper's "decide
    /// locally how many combining layers to traverse" adaption; 0 = go
    /// straight there).
    pub(crate) depth: Rc<RefCell<Vec<usize>>>,
}

impl<const CARRY: usize> SimFunnel<CARRY> {
    /// Allocates the layers and `procs` records of `rec_stride` words.
    pub(crate) fn build(
        m: &mut Machine,
        procs: usize,
        cfg: SimFunnelConfig,
        rec_stride: usize,
    ) -> Self {
        cfg.validate();
        debug_assert!(rec_stride >= CARRY + 3);
        let layers = cfg.widths.iter().map(|&w| (m.alloc(w), w)).collect();
        let records = m.alloc(procs * rec_stride);
        let levels = cfg.widths.len();
        SimFunnel {
            cfg: Rc::new(cfg),
            layers: Rc::new(layers),
            records,
            rec_stride,
            frac: Rc::new(RefCell::new(vec![256; procs])),
            depth: Rc::new(RefCell::new(vec![levels; procs])),
        }
    }

    /// Labels the layers and the records for hot-spot reports.
    pub(crate) fn label(&self, m: &mut Machine) {
        for &(base, w) in self.layers.iter() {
            m.label(base, w, "funnel layers");
        }
        let words = self.frac.borrow().len() * self.rec_stride;
        m.label(self.records, words, "funnel records");
    }

    fn loc_of(&self, pid: usize) -> Addr {
        assert!(
            pid < self.frac.borrow().len(),
            "processor {pid} used a funnel built for fewer processors"
        );
        self.records + pid * self.rec_stride
    }

    fn sum_of(&self, pid: usize) -> Addr {
        self.records + pid * self.rec_stride + 1
    }

    /// First of the words processor `pid`'s tree carries.
    pub(crate) fn carry_of(&self, pid: usize) -> Addr {
        self.records + pid * self.rec_stride + 2
    }

    /// Processor `pid`'s result word.
    pub(crate) fn res_of(&self, pid: usize) -> Addr {
        self.records + pid * self.rec_stride + 2 + CARRY
    }

    /// One operation of signed size `delta` carrying `carry`, through the
    /// layers as far as the processor's depth preference allows and then to
    /// `obj`'s central section, unless a partner captures it first.
    pub(crate) async fn operate<O: FunnelObject<CARRY>>(
        &self,
        obj: &O,
        ctx: &ProcCtx,
        delta: i64,
        mut carry: [Word; CARRY],
    ) -> O::Output {
        let _span = ctx.span(O::SPAN);
        ctx.work(costs::OP_SETUP).await;
        let pid = ctx.pid();
        let mut sum = delta;
        let mut children: Vec<(usize, i64)> = Vec::new();
        let mut d: usize = 0;
        let levels = self.layers.len();
        let width_frac: u64 = self.frac.borrow()[pid];
        let mut max_d: usize = self.depth.borrow()[pid].min(levels);
        let mut attempts_made = 0u32;
        let mut collisions_won = 0u32;
        let mut central_fails = 0u32;
        let mut was_captured = false;

        ctx.write(self.sum_of(pid), sum as u64).await;
        for (i, &word) in carry.iter().enumerate() {
            ctx.write(self.carry_of(pid) + i, word).await;
        }
        ctx.write(self.res_of(pid), RES_NONE).await;
        ctx.write(self.loc_of(pid), (d + 1) as u64).await;

        let result = 'walk: {
            'captured: loop {
                let mut n = 0;
                'attempts: while n < self.cfg.attempts && d < max_d {
                    n += 1;
                    attempts_made += 1;
                    let (layer_base, layer_w) = self.layers[d];
                    let wid = if self.cfg.adaption {
                        (((layer_w as u64) * width_frac / 256).max(1) as usize).min(layer_w)
                    } else {
                        layer_w
                    };
                    ctx.work(costs::RNG_DRAW).await;
                    let slot = layer_base + ctx.random_below(wid as u64) as usize;
                    let q = ctx.swap(slot, (pid + 1) as u64).await;
                    if q != 0 && (q - 1) as usize != pid {
                        let q = (q - 1) as usize;
                        // Freeze ourselves.
                        let old = ctx.cas(self.loc_of(pid), (d + 1) as u64, LOC_FROZEN).await;
                        if old != (d + 1) as u64 {
                            break 'captured;
                        }
                        // Try to capture q at our layer.
                        let qold = ctx.cas(self.loc_of(q), (d + 1) as u64, LOC_FROZEN).await;
                        if qold == (d + 1) as u64 {
                            collisions_won += 1;
                            // Marker for tracers and fault plans: this
                            // processor just won a collision and now combines
                            // (or eliminates) on behalf of the captured peer.
                            ctx.span("funnel-combine").end();
                            let qsum = ctx.read(self.sum_of(q)).await as i64;
                            if let Some((mine, theirs)) =
                                obj.meet(ctx, pid, q, sum, qsum, &mut carry).await
                            {
                                ctx.write(self.res_of(q), theirs).await;
                                break 'walk mine;
                            }
                            // Combined: q's tree becomes our child.
                            sum += qsum;
                            ctx.write(self.sum_of(pid), sum as u64).await;
                            children.push((q, qsum));
                            d += 1;
                            ctx.write(self.loc_of(pid), (d + 1) as u64).await;
                            n = 0;
                            continue 'attempts;
                        }
                        // Capture failed: republish ourselves at this layer.
                        ctx.write(self.loc_of(pid), (d + 1) as u64).await;
                    }
                    // Delay, periodically checking whether we were captured.
                    // Delay times adapt to load like widths do: a funnel whose
                    // collisions are succeeding (width_frac high) is worth
                    // waiting in; a quiet one is not.
                    let checks = if self.cfg.adaption {
                        ((self.cfg.spin_checks[d] as usize * max_d) / levels).max(1) as u32
                    } else {
                        self.cfg.spin_checks[d]
                    };
                    for _ in 0..checks {
                        ctx.work(costs::FUNNEL_SPIN_STEP).await;
                        let v = ctx.read(self.loc_of(pid)).await;
                        if v != (d + 1) as u64 {
                            break 'captured;
                        }
                    }
                }
                // Exit the funnel: apply the whole tree to the central object.
                let old = ctx.cas(self.loc_of(pid), (d + 1) as u64, LOC_FROZEN).await;
                if old != (d + 1) as u64 {
                    break 'captured;
                }
                let (result, contended) = obj.central(ctx, sum, &carry).await;
                central_fails += u32::from(contended);
                if let Some(result) = result {
                    break 'walk result;
                }
                // Central contention: allow deeper combining on the retry.
                max_d = (max_d + 1).min(levels);
                ctx.write(self.loc_of(pid), (d + 1) as u64).await;
            }
            // A partner froze us: our tree is its child now, and it writes
            // our result.
            was_captured = true;
            ctx.wait_until(self.res_of(pid), |v| v != RES_NONE).await
        };

        // Local adaption: grow the slice of the layer we use when collisions
        // are frequent, shrink it when they are rare.
        if self.cfg.adaption {
            if attempts_made > 0 {
                let mut frac = self.frac.borrow_mut();
                if collisions_won * 2 >= attempts_made {
                    frac[pid] = (frac[pid] * 2).min(256);
                } else if collisions_won == 0 {
                    frac[pid] = (frac[pid] / 2).max(16);
                }
            }
            // Depth adaption: combining success, being combined with, or a
            // contended central object all argue for traversing layers; a
            // clean solo pass argues for going straight to the center.
            let mut depth = self.depth.borrow_mut();
            if collisions_won > 0 || was_captured || central_fails > 0 {
                depth[pid] = (depth[pid] + 1).min(levels);
            } else {
                depth[pid] = depth[pid].saturating_sub(1);
            }
        }
        obj.distribute(ctx, result, delta, &children).await
    }
}
