//! Simulated `SkipList`: bounded-range skip list of bins with a delete bin
//! (paper Figure 12), using Pugh-style per-node locks.

use std::rc::Rc;

use funnelpq_sim::{Addr, Machine, ProcCtx};

use crate::bin::SimBin;
use crate::costs;
use crate::error::SimPqError;

const ST_UNTHREADED: u64 = 0;
const ST_THREADING: u64 = 1;
const ST_THREADED: u64 = 2;
const ST_UNLINKING: u64 = 3;

/// Forward pointers and the delete bin encode a node as `pri + 1`; 0 is
/// "none"; `HEAD` is the list head sentinel.
const NIL: u64 = 0;
const HEAD: u64 = u64::MAX;

#[derive(Debug)]
struct NodeMeta {
    state: Addr,
    lock: Addr,
    forward: Addr, // `height` words
    height: usize,
    bin: SimBin,
}

/// Simulated bounded-range concurrent skip-list priority queue with
/// Johnson's delete bin (plus the two quiescence refinements described in
/// DESIGN.md, mirroring the native implementation).
#[derive(Debug, Clone)]
pub struct SimSkipList {
    nodes: Rc<Vec<NodeMeta>>,
    head_forward: Addr,
    head_lock: Addr,
    del_bin: Addr,
    del_lock: Addr,
}

impl SimSkipList {
    /// Allocates a skip list for priorities `0..num_priorities`.
    pub fn build(
        m: &mut Machine,
        procs: usize,
        num_priorities: usize,
        bin_capacity: usize,
    ) -> Self {
        let max_level = (usize::BITS - num_priorities.leading_zeros()) as usize;
        let max_level = max_level.clamp(1, 20);
        // Deterministic tower heights from a simple LCG so builds are
        // reproducible without threading RNG state through the machine.
        let mut x: u64 = 0x9E3779B97F4A7C15;
        let mut nodes = Vec::with_capacity(num_priorities);
        for _ in 0..num_priorities {
            let mut h = 1;
            loop {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if h < max_level && (x >> 33) & 1 == 1 {
                    h += 1;
                } else {
                    break;
                }
            }
            let state = m.alloc(1);
            let lock = m.alloc(1);
            let forward = m.alloc(h);
            let bin = SimBin::build(m, procs, bin_capacity);
            nodes.push(NodeMeta {
                state,
                lock,
                forward,
                height: h,
                bin,
            });
        }
        let head_forward = m.alloc(max_level);
        let head_lock = m.alloc(1);
        let del_bin = m.alloc(1);
        let del_lock = m.alloc(1);
        SimSkipList {
            nodes: Rc::new(nodes),
            head_forward,
            head_lock,
            del_bin,
            del_lock,
        }
    }

    fn meta(&self, node: u64) -> &NodeMeta {
        &self.nodes[(node - 1) as usize]
    }

    fn fwd_addr(&self, node: u64, level: usize) -> Addr {
        if node == HEAD {
            self.head_forward + level
        } else {
            self.meta(node).forward + level
        }
    }

    fn lock_addr(&self, node: u64) -> Addr {
        if node == HEAD {
            self.head_lock
        } else {
            self.meta(node).lock
        }
    }

    /// Test-and-test-and-set with randomized backoff (see `SimHunt` for why
    /// the jitter matters in a deterministic simulator).
    async fn lock(&self, ctx: &ProcCtx, node: u64) {
        let a = self.lock_addr(node);
        loop {
            ctx.wait_until(a, |v| v == 0).await;
            if ctx.cas(a, 0, 1).await == 0 {
                return;
            }
            ctx.work(ctx.random_below(32)).await;
        }
    }

    async fn unlock(&self, ctx: &ProcCtx, node: u64) {
        ctx.write(self.lock_addr(node), 0).await;
    }

    /// Last node at `level` whose encoded priority precedes `enc`.
    async fn find_pred(&self, ctx: &ProcCtx, enc: u64, level: usize) -> u64 {
        let mut x = HEAD;
        loop {
            ctx.work(costs::LOOP_ITER).await;
            let nxt = ctx.read(self.fwd_addr(x, level)).await;
            if nxt != NIL && nxt < enc {
                x = nxt;
            } else {
                return x;
            }
        }
    }

    /// Splices node `enc` into all of its levels (caller holds THREADING).
    async fn splice(&self, ctx: &ProcCtx, enc: u64) {
        let _span = ctx.span("skiplist-splice");
        let node = self.meta(enc);
        for level in 0..node.height {
            loop {
                let pred = self.find_pred(ctx, enc, level).await;
                self.lock(ctx, pred).await;
                let ok = if pred == HEAD {
                    true
                } else {
                    ctx.read(self.meta(pred).state).await == ST_THREADED
                };
                if ok {
                    let succ = ctx.read(self.fwd_addr(pred, level)).await;
                    if succ == NIL || succ > enc {
                        ctx.write(node.forward + level, succ).await;
                        ctx.write(self.fwd_addr(pred, level), enc).await;
                        self.unlock(ctx, pred).await;
                        break;
                    }
                }
                self.unlock(ctx, pred).await;
                ctx.work(ctx.random_below(32)).await;
            }
        }
    }

    /// Ensures the node for `enc` is threaded (idempotent).
    async fn thread_node(&self, ctx: &ProcCtx, enc: u64) {
        let state = self.meta(enc).state;
        loop {
            let old = ctx.cas(state, ST_UNTHREADED, ST_THREADING).await;
            match old {
                ST_UNTHREADED => {
                    self.splice(ctx, enc).await;
                    ctx.write(state, ST_THREADED).await;
                    return;
                }
                ST_THREADED => return,
                _ => {
                    // THREADING or UNLINKING in flight: wait for a stable
                    // state, then re-check.
                    ctx.wait_until(state, |s| s == ST_THREADED || s == ST_UNTHREADED)
                        .await;
                }
            }
        }
    }

    /// Unlinks node `enc` from every level (caller holds the delete lock)
    /// and retargets the delete bin to it.
    async fn unlink(&self, ctx: &ProcCtx, enc: u64) {
        let _span = ctx.span("skiplist-unlink");
        let node = self.meta(enc);
        loop {
            let old = ctx.cas(node.state, ST_THREADED, ST_UNLINKING).await;
            if old == ST_THREADED {
                break;
            }
            ctx.wait_until(node.state, |s| s == ST_THREADED).await;
        }
        // Publish the delete bin *before* detaching from the list: a
        // concurrent delete must never observe both an empty list head and
        // a stale delete bin while this node's items are in flight.
        ctx.write(self.del_bin, enc).await;
        for level in (0..node.height).rev() {
            loop {
                let pred = self.find_pred(ctx, enc, level).await;
                self.lock(ctx, pred).await;
                self.lock(ctx, enc).await;
                if ctx.read(self.fwd_addr(pred, level)).await == enc {
                    let succ = ctx.read(node.forward + level).await;
                    ctx.write(self.fwd_addr(pred, level), succ).await;
                    self.unlock(ctx, enc).await;
                    self.unlock(ctx, pred).await;
                    break;
                }
                self.unlock(ctx, enc).await;
                self.unlock(ctx, pred).await;
                ctx.work(ctx.random_below(32)).await;
            }
        }
        ctx.write(node.state, ST_UNTHREADED).await;
    }

    /// Moves the delete bin to the list's first node, or waits a step for
    /// the deleter already doing so; the caller re-reads and retries either
    /// way. A previous delete bin that still holds items and is not
    /// THREADED is threaded (or its splice waited out) first, under the
    /// delete lock, and the move left to the retry (mirrors the native
    /// `advance_delete_bin`, which reads the bin under its lock; the
    /// simulated machine is sequentially consistent, so one read does).
    async fn advance_delete_bin(&self, ctx: &ProcCtx) {
        if ctx.cas(self.del_lock, 0, 1).await != 0 {
            ctx.work(costs::FUNNEL_SPIN_STEP).await;
            return;
        }
        let first = ctx.read(self.head_forward).await;
        if first != NIL {
            let old_db = ctx.read(self.del_bin).await;
            let stale = old_db != NIL
                && old_db != first
                && !self.meta(old_db).bin.is_empty(ctx).await
                && ctx.read(self.meta(old_db).state).await != ST_THREADED;
            if stale {
                self.thread_node(ctx, old_db).await;
            } else {
                self.unlink(ctx, first).await;
            }
        }
        ctx.write(self.del_lock, 0).await;
    }

    /// Inserts `(pri, item)`.
    ///
    /// # Panics
    ///
    /// Panics if the priority's bin is full; use
    /// [`try_insert`](Self::try_insert) to handle that case.
    pub async fn insert(&self, ctx: &ProcCtx, pri: u64, item: u64) {
        if let Err(e) = self.try_insert(ctx, pri, item).await {
            panic!("{e}");
        }
    }

    /// Inserts `(pri, item)`, reporting bin capacity exhaustion (with the
    /// failing processor and simulated time) instead of panicking. On
    /// `Err` the queue is unchanged.
    pub async fn try_insert(&self, ctx: &ProcCtx, pri: u64, item: u64) -> Result<(), SimPqError> {
        ctx.work(costs::OP_SETUP).await;
        let enc = pri + 1;
        // Bin first (paper order), then make sure the node is reachable.
        self.meta(enc).bin.try_insert(ctx, item).await?;
        if ctx.read(self.meta(enc).state).await != ST_THREADED {
            self.thread_node(ctx, enc).await;
        }
        Ok(())
    }

    /// Removes an item of minimal priority.
    pub async fn delete_min(&self, ctx: &ProcCtx) -> Option<(u64, u64)> {
        ctx.work(costs::OP_SETUP).await;
        loop {
            ctx.work(costs::LOOP_ITER).await;
            let db = ctx.read(self.del_bin).await;
            let first = ctx.read(self.head_forward).await;
            let db_ok = db != NIL && !self.meta(db).bin.is_empty(ctx).await;
            if db_ok && (first == NIL || db <= first) {
                if let Some(item) = self.meta(db).bin.delete(ctx).await {
                    return Some((db - 1, item));
                }
                continue;
            }
            if first == NIL {
                if db != NIL {
                    if let Some(item) = self.meta(db).bin.delete(ctx).await {
                        return Some((db - 1, item));
                    }
                }
                return None;
            }
            self.advance_delete_bin(ctx).await;
        }
    }

    /// Inserts a whole batch, paying the skip-list threading check **once
    /// per distinct priority** instead of once per item: the batch is
    /// sorted host-side, each run of equal priorities lands in one bin, and
    /// only the run's first item looks at (and possibly threads) the node.
    /// Mirrors the native `SkipListPq::insert_batch`. On bin exhaustion the
    /// already-filed prefix stays filed.
    pub async fn insert_batch(
        &self,
        ctx: &ProcCtx,
        batch: &[(u64, u64)],
    ) -> Result<(), SimPqError> {
        if batch.is_empty() {
            return Ok(());
        }
        let mut sorted: Vec<(u64, u64)> = batch.to_vec();
        sorted.sort_unstable_by_key(|&(pri, _)| pri);
        ctx.work(costs::OP_SETUP).await;
        let mut i = 0;
        while i < sorted.len() {
            let pri = sorted[i].0;
            let enc = pri + 1;
            while i < sorted.len() && sorted[i].0 == pri {
                self.meta(enc).bin.try_insert(ctx, sorted[i].1).await?;
                i += 1;
            }
            if ctx.read(self.meta(enc).state).await != ST_THREADED {
                self.thread_node(ctx, enc).await;
            }
        }
        Ok(())
    }

    /// Removes up to `k` minimal items, appending to `out`; returns the
    /// number taken. Mirrors the native batched drain: once a delete bin is
    /// chosen it is drained until `k` items are out or it runs dry, so the
    /// bin-advance machinery (delete lock, unlink, re-thread) runs once per
    /// *bin*, not once per item.
    pub async fn delete_min_batch(
        &self,
        ctx: &ProcCtx,
        k: usize,
        out: &mut Vec<(u64, u64)>,
    ) -> usize {
        ctx.work(costs::OP_SETUP).await;
        let mut taken = 0;
        'outer: while taken < k {
            ctx.work(costs::LOOP_ITER).await;
            let db = ctx.read(self.del_bin).await;
            let first = ctx.read(self.head_forward).await;
            let db_ok = db != NIL && !self.meta(db).bin.is_empty(ctx).await;
            if db_ok && (first == NIL || db <= first) {
                while taken < k {
                    match self.meta(db).bin.delete(ctx).await {
                        Some(item) => {
                            out.push((db - 1, item));
                            taken += 1;
                        }
                        None => continue 'outer,
                    }
                }
                return taken;
            }
            if first == NIL {
                let before = taken;
                if db != NIL {
                    while taken < k {
                        match self.meta(db).bin.delete(ctx).await {
                            Some(item) => {
                                out.push((db - 1, item));
                                taken += 1;
                            }
                            None => break,
                        }
                    }
                }
                if taken == before {
                    return taken;
                }
                continue;
            }
            self.advance_delete_bin(ctx).await;
        }
        taken
    }

    /// Host-side item count: sums all bins (no simulated cost; meaningful
    /// at quiescence).
    pub fn peek_len(&self, m: &Machine) -> u64 {
        self.nodes.iter().map(|nm| nm.bin.peek_len(m)).sum()
    }

    /// Structural validation at quiescence: all locks free, every node in
    /// a stable state, the level-0 list ascending and exactly the THREADED
    /// nodes, and every nonempty bin visible to deletes (threaded or the
    /// delete-bin target). Returns the item count.
    pub fn validate(&self, m: &Machine) -> Result<u64, String> {
        if m.peek(self.head_lock) != 0 {
            return Err("SimSkipList: head lock held at quiescence".into());
        }
        if m.peek(self.del_lock) != 0 {
            return Err("SimSkipList: delete lock held at quiescence".into());
        }
        let db = m.peek(self.del_bin);
        // Walk level 0: must be strictly ascending, all THREADED.
        let mut reachable = vec![false; self.nodes.len()];
        let mut x = m.peek(self.head_forward);
        let mut prev = 0u64;
        let mut steps = 0usize;
        while x != NIL {
            if steps > self.nodes.len() {
                return Err("SimSkipList: level-0 list has a cycle".into());
            }
            if x <= prev {
                return Err(format!(
                    "SimSkipList: level-0 list not ascending ({x} after {prev})"
                ));
            }
            let nm = self.meta(x);
            if m.peek(nm.state) != ST_THREADED {
                return Err(format!(
                    "SimSkipList: node {x} reachable at level 0 but not THREADED"
                ));
            }
            reachable[(x - 1) as usize] = true;
            prev = x;
            x = m.peek(nm.forward);
            steps += 1;
        }
        let mut total = 0u64;
        for (i, nm) in self.nodes.iter().enumerate() {
            let enc = i as u64 + 1;
            if m.peek(nm.lock) != 0 {
                return Err(format!("SimSkipList: node {enc} lock held at quiescence"));
            }
            let st = m.peek(nm.state);
            if st != ST_THREADED && st != ST_UNTHREADED {
                return Err(format!(
                    "SimSkipList: node {enc} in transient state {st} at quiescence"
                ));
            }
            if st == ST_THREADED && !reachable[i] {
                return Err(format!(
                    "SimSkipList: node {enc} THREADED but unreachable at level 0"
                ));
            }
            let len = nm.bin.validate(m).map_err(|e| format!("node {enc}: {e}"))?;
            if len > 0 && st != ST_THREADED && db != enc {
                return Err(format!(
                    "SimSkipList: node {enc} holds {len} items but is invisible \
                     (unthreaded and not the delete bin)"
                ));
            }
            total += len;
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use funnelpq_sim::MachineConfig;
    use std::cell::RefCell;

    #[test]
    fn sequential_order() {
        let mut m = Machine::new(MachineConfig::test_tiny(), 0);
        let q = SimSkipList::build(&mut m, 1, 16, 64);
        let ctx = m.ctx();
        let q2 = q.clone();
        m.spawn(async move {
            for p in [12u64, 2, 8, 2, 0, 15] {
                q2.insert(&ctx, p, p).await;
            }
            let mut got = Vec::new();
            while let Some((p, _)) = q2.delete_min(&ctx).await {
                got.push(p);
            }
            assert_eq!(got, vec![0, 2, 2, 8, 12, 15]);
        });
        assert!(m.run().is_quiescent());
    }

    #[test]
    fn smaller_insert_after_delete_bin_is_preferred() {
        let mut m = Machine::new(MachineConfig::test_tiny(), 0);
        let q = SimSkipList::build(&mut m, 1, 16, 64);
        let ctx = m.ctx();
        let q2 = q.clone();
        m.spawn(async move {
            q2.insert(&ctx, 5, 51).await;
            q2.insert(&ctx, 5, 52).await;
            assert_eq!(q2.delete_min(&ctx).await.unwrap().0, 5);
            q2.insert(&ctx, 3, 30).await;
            assert_eq!(q2.delete_min(&ctx).await.unwrap().0, 3);
            assert_eq!(q2.delete_min(&ctx).await.unwrap().0, 5);
            assert_eq!(q2.delete_min(&ctx).await, None);
        });
        assert!(m.run().is_quiescent());
    }

    #[test]
    fn batch_ops_preserve_order() {
        let mut m = Machine::new(MachineConfig::test_tiny(), 0);
        let q = SimSkipList::build(&mut m, 1, 16, 64);
        let ctx = m.ctx();
        let q2 = q.clone();
        m.spawn(async move {
            q2.insert_batch(&ctx, &[(12, 120), (2, 20), (8, 80), (2, 21), (0, 1)])
                .await
                .unwrap();
            q2.insert_batch(&ctx, &[]).await.unwrap();
            let mut out = Vec::new();
            assert_eq!(q2.delete_min_batch(&ctx, 4, &mut out).await, 4);
            assert_eq!(
                out.iter().map(|e| e.0).collect::<Vec<_>>(),
                vec![0, 2, 2, 8]
            );
            out.clear();
            assert_eq!(q2.delete_min_batch(&ctx, 4, &mut out).await, 1);
            assert_eq!(out, vec![(12, 120)]);
            assert_eq!(q2.delete_min_batch(&ctx, 4, &mut out).await, 0);
        });
        assert!(m.run().is_quiescent());
        assert_eq!(q.validate(&m).unwrap(), 0);
    }

    #[test]
    fn concurrent_conservation() {
        use std::rc::Rc;
        const P: usize = 10;
        const N: usize = 20;
        let mut m = Machine::new(MachineConfig::test_tiny(), 17);
        let q = SimSkipList::build(&mut m, P + 1, 8, P * N);
        let got = Rc::new(RefCell::new(Vec::new()));
        for p in 0..P {
            let ctx = m.ctx();
            let q = q.clone();
            let got = Rc::clone(&got);
            m.spawn(async move {
                for i in 0..N {
                    q.insert(&ctx, ((p + i) % 8) as u64, (p * N + i) as u64)
                        .await;
                    if i % 2 == 0 {
                        if let Some((_, x)) = q.delete_min(&ctx).await {
                            got.borrow_mut().push(x);
                        }
                    }
                }
            });
        }
        assert!(m.run().is_quiescent(), "SkipList deadlocked");
        let ctx = m.ctx();
        let q2 = q.clone();
        let got2 = Rc::clone(&got);
        m.spawn(async move {
            while let Some((_, x)) = q2.delete_min(&ctx).await {
                got2.borrow_mut().push(x);
            }
        });
        assert!(m.run().is_quiescent());
        let mut all = got.borrow().clone();
        all.sort_unstable();
        assert_eq!(all, (0..(P * N) as u64).collect::<Vec<_>>());
    }
}
