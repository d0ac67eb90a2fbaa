//! Simulated `SimpleLinear` (paper Figure 2) and `LinearFunnels` (§3.2):
//! one bin per priority scanned smallest-first — MCS-locked bins, or
//! combining-funnel stacks.

use std::future::Future;
use std::rc::Rc;

use funnelpq_sim::{Machine, ProcCtx};

use crate::bin::SimBin;
use crate::costs;
use crate::error::SimPqError;
use crate::funnel_stack::SimFunnelStack;

/// What the linear layout asks of its bins: [`SimBin`] (`SimpleLinear`)
/// or [`SimFunnelStack`] (`LinearFunnels`).
///
/// The methods hand back the bin's own futures, with no `async` layer of
/// their own: a bigger `SimPq` future would move the host heap layout of
/// every simulated run. For the same reason [`SimLinear`] is generic
/// rather than built over `SimTreeBin` — that enum would change the size
/// of its one bin-array allocation.
pub trait LinearBin {
    /// Name of the scan span over bins of this kind.
    const SCAN: &'static str;
    /// Files `item`, reporting a full bin instead of panicking.
    fn try_insert(&self, ctx: &ProcCtx, item: u64) -> impl Future<Output = Result<(), SimPqError>>;
    /// Removes an item, or `None` when the bin is empty.
    fn delete(&self, ctx: &ProcCtx) -> impl Future<Output = Option<u64>>;
    /// One-read emptiness test (may be stale).
    fn is_empty(&self, ctx: &ProcCtx) -> impl Future<Output = bool>;
    /// Host-side item count, meaningful at quiescence.
    fn peek_len(&self, m: &Machine) -> Result<u64, String>;
    /// Structural validation at quiescence; returns the item count.
    fn validate(&self, m: &Machine) -> Result<u64, String>;
}

impl LinearBin for SimBin {
    const SCAN: &'static str = "bin-scan";
    fn try_insert(&self, ctx: &ProcCtx, item: u64) -> impl Future<Output = Result<(), SimPqError>> {
        SimBin::try_insert(self, ctx, item)
    }
    fn delete(&self, ctx: &ProcCtx) -> impl Future<Output = Option<u64>> {
        SimBin::delete(self, ctx)
    }
    fn is_empty(&self, ctx: &ProcCtx) -> impl Future<Output = bool> {
        SimBin::is_empty(self, ctx)
    }
    fn peek_len(&self, m: &Machine) -> Result<u64, String> {
        Ok(SimBin::peek_len(self, m))
    }
    fn validate(&self, m: &Machine) -> Result<u64, String> {
        SimBin::validate(self, m)
    }
}

impl LinearBin for SimFunnelStack {
    const SCAN: &'static str = "stack-scan";
    fn try_insert(&self, ctx: &ProcCtx, item: u64) -> impl Future<Output = Result<(), SimPqError>> {
        self.try_push(ctx, item)
    }
    fn delete(&self, ctx: &ProcCtx) -> impl Future<Output = Option<u64>> {
        self.pop(ctx)
    }
    fn is_empty(&self, ctx: &ProcCtx) -> impl Future<Output = bool> {
        SimFunnelStack::is_empty(self, ctx)
    }
    fn peek_len(&self, m: &Machine) -> Result<u64, String> {
        SimFunnelStack::peek_len(self, m)
    }
    fn validate(&self, m: &Machine) -> Result<u64, String> {
        SimFunnelStack::validate(self, m)
    }
}

/// One bin per priority; `delete_min` reads each bin's emptiness word in
/// ascending priority order ("crucial to the performance of
/// LinearFunnels") and tries to delete from non-empty bins.
#[derive(Debug, Clone)]
pub struct SimLinear<B> {
    bins: Rc<Vec<B>>,
}

impl<B: LinearBin> SimLinear<B> {
    /// Allocates `num_priorities` bins, one `make_bin(m)` each.
    pub fn build(
        m: &mut Machine,
        num_priorities: usize,
        mut make_bin: impl FnMut(&mut Machine) -> B,
    ) -> Self {
        let bins = (0..num_priorities).map(|_| make_bin(m)).collect();
        SimLinear {
            bins: Rc::new(bins),
        }
    }

    /// Inserts `(pri, item)` — one bin insert, no scanning.
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
        self.bins[pri as usize].try_insert(ctx, item).await
    }

    /// Scans bins from smallest priority; deletes from the first non-empty
    /// bin that yields an item.
    pub async fn delete_min(&self, ctx: &ProcCtx) -> Option<(u64, u64)> {
        ctx.work(costs::OP_SETUP).await;
        let _scan = ctx.span(B::SCAN);
        for (pri, bin) in self.bins.iter().enumerate() {
            ctx.work(costs::LOOP_ITER).await;
            if !bin.is_empty(ctx).await {
                if let Some(item) = bin.delete(ctx).await {
                    return Some((pri as u64, item));
                }
            }
        }
        None
    }

    /// Host-side item count: sums all bins (no simulated cost; meaningful
    /// at quiescence). Errors on a corrupt funnel-stack chain.
    pub fn peek_len(&self, m: &Machine) -> Result<u64, String> {
        let mut total = 0u64;
        for (pri, bin) in self.bins.iter().enumerate() {
            total += bin.peek_len(m).map_err(|e| format!("pri {pri}: {e}"))?;
        }
        Ok(total)
    }

    /// Structural validation at quiescence: every bin's lock free, every
    /// size word within capacity, every head chain well-formed. Returns
    /// the item count.
    pub fn validate(&self, m: &Machine) -> Result<u64, String> {
        let mut total = 0u64;
        for (pri, bin) in self.bins.iter().enumerate() {
            total += bin.validate(m).map_err(|e| format!("pri {pri}: {e}"))?;
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::funnel::SimFunnelConfig;
    use funnelpq_sim::MachineConfig;
    use std::cell::RefCell;

    #[test]
    fn sequential_order() {
        let mut m = Machine::new(MachineConfig::test_tiny(), 0);
        let q = SimLinear::build(&mut m, 8, |m| SimBin::build(m, 1, 16));
        let ctx = m.ctx();
        let q2 = q.clone();
        m.spawn(async move {
            for p in [6u64, 1, 4, 1] {
                q2.insert(&ctx, p, p * 100).await;
            }
            assert_eq!(q2.delete_min(&ctx).await.unwrap().0, 1);
            assert_eq!(q2.delete_min(&ctx).await.unwrap().0, 1);
            assert_eq!(q2.delete_min(&ctx).await.unwrap().0, 4);
            assert_eq!(q2.delete_min(&ctx).await.unwrap().0, 6);
            assert_eq!(q2.delete_min(&ctx).await, None);
        });
        assert!(m.run().is_quiescent());
    }

    #[test]
    fn funnel_stacks_sequential_order() {
        let mut m = Machine::new(MachineConfig::test_tiny(), 0);
        let cfg = SimFunnelConfig::for_procs(1);
        let q = SimLinear::build(&mut m, 6, |m| SimFunnelStack::build(m, 1, 16, cfg.clone()));
        let ctx = m.ctx();
        let q2 = q.clone();
        m.spawn(async move {
            for p in [5u64, 0, 3] {
                q2.insert(&ctx, p, p * 100).await;
            }
            assert_eq!(q2.delete_min(&ctx).await, Some((0, 0)));
            assert_eq!(q2.delete_min(&ctx).await, Some((3, 300)));
            assert_eq!(q2.delete_min(&ctx).await, Some((5, 500)));
            assert_eq!(q2.delete_min(&ctx).await, None);
        });
        assert!(m.run().is_quiescent());
    }

    #[test]
    fn concurrent_conservation() {
        const P: usize = 16;
        const N: usize = 20;
        let mut m = Machine::new(MachineConfig::alewife_like(), 31);
        let cfg = SimFunnelConfig::for_procs(P);
        let q = SimLinear::build(&mut m, 4, |m| {
            SimFunnelStack::build(m, P + 1, P * N + 4, cfg.clone())
        });
        let got = Rc::new(RefCell::new(Vec::new()));
        for p in 0..P {
            let ctx = m.ctx();
            let q = q.clone();
            let got = Rc::clone(&got);
            m.spawn(async move {
                for i in 0..N {
                    q.insert(&ctx, ((p + i) % 4) as u64, (p * N + i) as u64)
                        .await;
                    if i % 2 == 1 {
                        if let Some((_, x)) = q.delete_min(&ctx).await {
                            got.borrow_mut().push(x);
                        }
                    }
                }
            });
        }
        assert!(m.run().is_quiescent(), "LinearFunnels deadlocked");
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
