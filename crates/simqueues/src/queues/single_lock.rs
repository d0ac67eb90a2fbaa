//! Simulated `SingleLock`: a sequential heap under one MCS lock.

use funnelpq_sim::{Machine, ProcCtx};

use crate::costs;
use crate::error::SimPqError;
use crate::heap::SimHeap;
use crate::mcs::SimMcsLock;

/// Heap entries live in simulated memory ([pri, item] pairs), so the time
/// the lock is held grows with the heap operations' real memory traffic.
#[derive(Debug, Clone, Copy)]
pub struct SimSingleLock {
    lock: SimMcsLock,
    heap: SimHeap,
}

impl SimSingleLock {
    /// Allocates a heap of at most `capacity` items for `procs` processors.
    pub fn build(m: &mut Machine, procs: usize, capacity: usize) -> Self {
        let lock = SimMcsLock::build(m, procs);
        SimSingleLock {
            lock,
            heap: SimHeap::build(m, capacity),
        }
    }

    /// Inserts under the global lock, sifting up in simulated memory.
    ///
    /// # Panics
    ///
    /// Panics if the heap is full; use [`try_insert`](Self::try_insert)
    /// to handle that case.
    pub async fn insert(&self, ctx: &ProcCtx, pri: u64, item: u64) {
        if let Err(e) = self.try_insert(ctx, pri, item).await {
            panic!("{e}");
        }
    }

    fn full(&self, ctx: &ProcCtx) -> SimPqError {
        SimPqError::CapacityExhausted {
            what: "SimSingleLock",
            capacity: self.heap.capacity(),
            proc: ctx.pid(),
            time: ctx.now(),
        }
    }

    /// Inserts under the global lock, reporting capacity exhaustion (with
    /// the failing processor and simulated time) instead of panicking. On
    /// `Err` the heap is unchanged and the lock released.
    pub async fn try_insert(&self, ctx: &ProcCtx, pri: u64, item: u64) -> Result<(), SimPqError> {
        ctx.work(costs::OP_SETUP).await;
        self.lock.acquire(ctx).await;
        let hold = ctx.span("lock-hold");
        let ok = self.heap.push(ctx, pri, item).await;
        hold.end();
        self.lock.release(ctx).await;
        if ok {
            Ok(())
        } else {
            Err(self.full(ctx))
        }
    }

    /// Removes the minimum under the global lock.
    pub async fn delete_min(&self, ctx: &ProcCtx) -> Option<(u64, u64)> {
        ctx.work(costs::OP_SETUP).await;
        self.lock.acquire(ctx).await;
        let hold = ctx.span("lock-hold");
        let got = self.heap.pop(ctx).await;
        hold.end();
        self.lock.release(ctx).await;
        got
    }

    /// Inserts a whole batch under **one** lock acquisition, mirroring the
    /// native `SingleLockPq::insert_batch`: the batch is sorted ascending
    /// host-side (free prep, like thread-local state elsewhere), then each
    /// entry pays only its simulated heap traffic while the lock is held
    /// once. On capacity exhaustion the already-filed prefix stays filed,
    /// matching the native partial-batch contract.
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
        self.lock.acquire(ctx).await;
        let hold = ctx.span("lock-hold");
        let mut full = false;
        for &(pri, item) in &sorted {
            if !self.heap.push(ctx, pri, item).await {
                full = true;
                break;
            }
        }
        hold.end();
        self.lock.release(ctx).await;
        if full {
            return Err(self.full(ctx));
        }
        Ok(())
    }

    /// Pops up to `k` minima under **one** lock acquisition, appending to
    /// `out`; returns the number taken (fewer only when the heap drains).
    pub async fn delete_min_batch(
        &self,
        ctx: &ProcCtx,
        k: usize,
        out: &mut Vec<(u64, u64)>,
    ) -> usize {
        ctx.work(costs::OP_SETUP).await;
        self.lock.acquire(ctx).await;
        let hold = ctx.span("lock-hold");
        let mut taken = 0;
        while taken < k {
            match self.heap.pop(ctx).await {
                Some(e) => {
                    out.push(e);
                    taken += 1;
                }
                None => break,
            }
        }
        hold.end();
        self.lock.release(ctx).await;
        taken
    }

    /// Host-side item count (no simulated cost; meaningful at quiescence).
    pub fn peek_len(&self, m: &Machine) -> u64 {
        self.heap.peek_len(m)
    }

    /// Structural validation at quiescence: lock free, size within
    /// capacity, and the heap property over the live entries. Returns the
    /// item count.
    pub fn validate(&self, m: &Machine) -> Result<u64, String> {
        if !self.lock.peek_free(m) {
            return Err("SimSingleLock: lock held at quiescence".into());
        }
        self.heap
            .validate(m)
            .map_err(|e| format!("SimSingleLock: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use funnelpq_sim::MachineConfig;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn sequential_order() {
        let mut m = Machine::new(MachineConfig::test_tiny(), 0);
        let q = SimSingleLock::build(&mut m, 1, 32);
        let ctx = m.ctx();
        m.spawn(async move {
            for p in [9u64, 1, 5, 1, 7] {
                q.insert(&ctx, p, p * 10).await;
            }
            let mut got = Vec::new();
            while let Some((p, _)) = q.delete_min(&ctx).await {
                got.push(p);
            }
            assert_eq!(got, vec![1, 1, 5, 7, 9]);
        });
        assert!(m.run().is_quiescent());
    }

    /// `SimPq`'s size is the size of a host allocation every run makes, and
    /// the malloc bin it falls in shifts the whole run's heap layout (see
    /// `SimHeap::top`): the heap's words must not make this twin the
    /// largest variant.
    #[test]
    fn does_not_set_the_size_of_simpq() {
        use crate::queues::{SimNumaPq, SimPq};
        use std::mem::size_of;
        assert_eq!(size_of::<SimPq>(), size_of::<SimNumaPq>());
        assert!(size_of::<SimSingleLock>() < size_of::<SimNumaPq>());
    }

    #[test]
    fn batch_ops_match_singles() {
        let mut m = Machine::new(MachineConfig::test_tiny(), 0);
        let q = SimSingleLock::build(&mut m, 1, 32);
        let ctx = m.ctx();
        m.spawn(async move {
            q.insert_batch(&ctx, &[(9, 90), (1, 10), (5, 50), (1, 11)])
                .await
                .unwrap();
            q.insert_batch(&ctx, &[]).await.unwrap();
            let mut out = Vec::new();
            assert_eq!(q.delete_min_batch(&ctx, 3, &mut out).await, 3);
            assert_eq!(out.iter().map(|e| e.0).collect::<Vec<_>>(), vec![1, 1, 5]);
            out.clear();
            assert_eq!(q.delete_min_batch(&ctx, 8, &mut out).await, 1);
            assert_eq!(out, vec![(9, 90)]);
            assert_eq!(q.delete_min_batch(&ctx, 4, &mut out).await, 0);
        });
        assert!(m.run().is_quiescent());
    }

    #[test]
    fn batch_insert_reports_capacity_with_prefix_filed() {
        let mut m = Machine::new(MachineConfig::test_tiny(), 0);
        let q = SimSingleLock::build(&mut m, 1, 3);
        let ctx = m.ctx();
        m.spawn(async move {
            let err = q
                .insert_batch(&ctx, &[(4, 0), (2, 0), (8, 0), (6, 0)])
                .await
                .unwrap_err();
            assert!(matches!(err, SimPqError::CapacityExhausted { .. }));
            // Ascending prefix filed: 2, 4, 6 made it; 8 did not.
            let mut out = Vec::new();
            assert_eq!(q.delete_min_batch(&ctx, 8, &mut out).await, 3);
            assert_eq!(out.iter().map(|e| e.0).collect::<Vec<_>>(), vec![2, 4, 6]);
        });
        assert!(m.run().is_quiescent());
    }

    #[test]
    fn concurrent_conservation() {
        const P: usize = 8;
        const N: usize = 25;
        let mut m = Machine::new(MachineConfig::test_tiny(), 2);
        let q = SimSingleLock::build(&mut m, P + 1, P * N);
        let got = Rc::new(RefCell::new(Vec::new()));
        for p in 0..P {
            let ctx = m.ctx();
            let got = Rc::clone(&got);
            m.spawn(async move {
                for i in 0..N {
                    q.insert(&ctx, ((p + i) % 5) as u64, (p * N + i) as u64)
                        .await;
                    if i % 2 == 0 {
                        if let Some((_, x)) = q.delete_min(&ctx).await {
                            got.borrow_mut().push(x);
                        }
                    }
                }
            });
        }
        assert!(m.run().is_quiescent());
        let ctx = m.ctx();
        let got2 = Rc::clone(&got);
        m.spawn(async move {
            while let Some((_, x)) = q.delete_min(&ctx).await {
                got2.borrow_mut().push(x);
            }
        });
        assert!(m.run().is_quiescent());
        let mut all = got.borrow().clone();
        all.sort_unstable();
        assert_eq!(all, (0..(P * N) as u64).collect::<Vec<_>>());
    }
}
