//! The seven priority-queue algorithms of the paper, expressed against the
//! simulated machine, behind one dispatch type ([`SimPq`]).

mod counter_tree;
mod hunt;
mod linear;
mod multiqueue;
mod numa;
mod single_lock;
mod skiplist;

pub use counter_tree::{SimCounterTree, SimTreeBin, TreeFlavor};
pub use hunt::SimHunt;
pub use linear::{LinearBin, SimLinear};
pub use multiqueue::SimMultiQueue;
pub use numa::SimNumaPq;
pub use single_lock::SimSingleLock;
pub use skiplist::SimSkipList;

use funnelpq_sim::{Machine, ProcCtx};

use crate::bin::SimBin;
use crate::error::SimPqError;
use crate::funnel::SimFunnelConfig;
use crate::funnel_stack::SimFunnelStack;

// One shared name list for native and simulated queues: the enum lives in
// the core crate (which also documents each algorithm's consistency) and is
// re-exported here so sim-side consumers keep their import paths.
pub use funnelpq::Algorithm;

/// Build-time parameters shared by all algorithms.
#[derive(Debug, Clone)]
pub struct BuildParams {
    /// Number of processors that will use the queue.
    pub procs: usize,
    /// Priority range `0..num_priorities`.
    pub num_priorities: usize,
    /// Capacity bound (items per bin / total heap items).
    pub capacity: usize,
    /// Funnel tuning for the funnel-based algorithms.
    pub funnel: SimFunnelConfig,
    /// Funnel-levels cutoff for `FunnelTree` (paper: 4).
    pub funnel_levels: usize,
    /// Queues per processor for `MultiQueue` (the classic *c*; 2 gives the
    /// power-of-two-choices quality bound).
    pub mq_factor: usize,
    /// Operations a `MultiQueue` processor reuses its queue choice for
    /// before redrawing (1 = a fresh draw every operation).
    pub mq_stickiness: u64,
    /// NUMA nodes `NumaPq` partitions its queues across (clamped to the
    /// machine's configured node count at build time).
    pub numa_nodes: usize,
    /// Operations per adaptive-controller epoch for `NumaPq`.
    pub numa_epoch_ops: u64,
    /// Mode policy for `NumaPq`: adapt live, or pin one discipline.
    pub numa_policy: funnelpq::NumaPolicy,
}

impl BuildParams {
    /// Sensible defaults for a workload of `procs` processors over
    /// `num_priorities` priorities.
    pub fn new(procs: usize, num_priorities: usize) -> Self {
        BuildParams {
            procs,
            num_priorities,
            capacity: (procs * 64).max(1024),
            funnel: SimFunnelConfig::for_procs(procs),
            funnel_levels: 4,
            mq_factor: 2,
            mq_stickiness: 8,
            numa_nodes: 2,
            numa_epoch_ops: 64,
            numa_policy: funnelpq::NumaPolicy::Adaptive,
        }
    }

    /// Checks the parameters for internal consistency without allocating
    /// anything.
    pub fn check(&self) -> Result<(), SimPqError> {
        if self.procs == 0 {
            return Err(SimPqError::BadConfig {
                what: "BuildParams",
                detail: "procs must be at least 1".into(),
            });
        }
        if self.num_priorities == 0 {
            return Err(SimPqError::BadConfig {
                what: "BuildParams",
                detail: "num_priorities must be at least 1".into(),
            });
        }
        if self.capacity == 0 {
            return Err(SimPqError::BadConfig {
                what: "BuildParams",
                detail: "capacity must be at least 1".into(),
            });
        }
        if self.mq_factor == 0 {
            return Err(SimPqError::BadConfig {
                what: "BuildParams",
                detail: "mq_factor must be at least 1".into(),
            });
        }
        if self.mq_stickiness == 0 {
            return Err(SimPqError::BadConfig {
                what: "BuildParams",
                detail: "mq_stickiness must be at least 1".into(),
            });
        }
        if self.numa_nodes == 0 {
            return Err(SimPqError::BadConfig {
                what: "BuildParams",
                detail: "numa_nodes must be at least 1".into(),
            });
        }
        if self.numa_epoch_ops == 0 {
            return Err(SimPqError::BadConfig {
                what: "BuildParams",
                detail: "numa_epoch_ops must be at least 1".into(),
            });
        }
        self.funnel.check()
    }
}

/// A built simulated priority queue of any of the seven kinds.
#[derive(Debug, Clone)]
pub enum SimPq {
    /// See [`SimSingleLock`].
    SingleLock(SimSingleLock),
    /// See [`SimHunt`].
    HuntEtAl(SimHunt),
    /// See [`SimSkipList`].
    SkipList(SimSkipList),
    /// See [`SimLinear`] over MCS-locked bins.
    SimpleLinear(SimLinear<SimBin>),
    /// See [`SimCounterTree`] with [`TreeFlavor::Simple`].
    SimpleTree(SimCounterTree),
    /// See [`SimLinear`] over funnel stacks.
    LinearFunnels(SimLinear<SimFunnelStack>),
    /// See [`SimCounterTree`] with [`TreeFlavor::Funnel`].
    FunnelTree(SimCounterTree),
    /// See [`SimCounterTree`] with [`TreeFlavor::Hardware`].
    HardwareTree(SimCounterTree),
    /// See [`SimMultiQueue`]. Relaxed — not one of the paper's seven.
    MultiQueue(SimMultiQueue),
    /// See [`SimNumaPq`]. Relaxed and NUMA-adaptive — not one of the
    /// paper's seven.
    NumaPq(SimNumaPq),
}

impl SimPq {
    /// Allocates the chosen algorithm's structures in `m` after checking
    /// the parameters, reporting inconsistencies instead of panicking.
    pub fn try_build(
        m: &mut Machine,
        algo: Algorithm,
        p: &BuildParams,
    ) -> Result<Self, SimPqError> {
        p.check()?;
        Ok(Self::build(m, algo, p))
    }

    /// Allocates the chosen algorithm's structures in `m`.
    pub fn build(m: &mut Machine, algo: Algorithm, p: &BuildParams) -> Self {
        match algo {
            Algorithm::SingleLock => {
                SimPq::SingleLock(SimSingleLock::build(m, p.procs, p.capacity))
            }
            Algorithm::HuntEtAl => SimPq::HuntEtAl(SimHunt::build(m, p.procs, p.capacity)),
            Algorithm::SkipList => {
                SimPq::SkipList(SimSkipList::build(m, p.procs, p.num_priorities, p.capacity))
            }
            Algorithm::SimpleLinear => {
                SimPq::SimpleLinear(SimLinear::build(m, p.num_priorities, |m| {
                    SimBin::build(m, p.procs, p.capacity)
                }))
            }
            Algorithm::SimpleTree => SimPq::SimpleTree(SimCounterTree::build(
                m,
                p.procs,
                p.num_priorities,
                p.capacity,
                TreeFlavor::Simple,
            )),
            Algorithm::LinearFunnels => {
                // The closure owns one config clone and hands each bin its
                // own: this host allocation sequence sets the heap layout
                // of every later run, so keep it.
                let cfg = p.funnel.clone();
                SimPq::LinearFunnels(SimLinear::build(m, p.num_priorities, move |m| {
                    SimFunnelStack::build(m, p.procs, p.capacity, cfg.clone())
                }))
            }
            Algorithm::FunnelTree => SimPq::FunnelTree(SimCounterTree::build(
                m,
                p.procs,
                p.num_priorities,
                p.capacity,
                TreeFlavor::Funnel {
                    cfg: p.funnel.clone(),
                    funnel_levels: p.funnel_levels,
                },
            )),
            Algorithm::HardwareTree => SimPq::HardwareTree(SimCounterTree::build(
                m,
                p.procs,
                p.num_priorities,
                p.capacity,
                TreeFlavor::Hardware,
            )),
            Algorithm::MultiQueue => SimPq::MultiQueue(SimMultiQueue::build(
                m,
                p.procs,
                p.capacity,
                p.mq_factor,
                p.mq_stickiness,
            )),
            Algorithm::NumaPq => SimPq::NumaPq(SimNumaPq::build(
                m,
                p.procs,
                p.capacity,
                p.mq_factor,
                p.numa_nodes,
                p.numa_epoch_ops,
                p.numa_policy,
            )),
        }
    }

    /// Inserts `(pri, item)`.
    ///
    /// # Panics
    ///
    /// Panics on capacity exhaustion; use
    /// [`try_insert`](Self::try_insert) to handle that case.
    pub async fn insert(&self, ctx: &ProcCtx, pri: u64, item: u64) {
        match self {
            SimPq::SingleLock(q) => q.insert(ctx, pri, item).await,
            SimPq::HuntEtAl(q) => q.insert(ctx, pri, item).await,
            SimPq::SkipList(q) => q.insert(ctx, pri, item).await,
            SimPq::SimpleLinear(q) => q.insert(ctx, pri, item).await,
            SimPq::SimpleTree(q) => q.insert(ctx, pri, item).await,
            SimPq::LinearFunnels(q) => q.insert(ctx, pri, item).await,
            SimPq::FunnelTree(q) => q.insert(ctx, pri, item).await,
            SimPq::HardwareTree(q) => q.insert(ctx, pri, item).await,
            SimPq::MultiQueue(q) => q.insert(ctx, pri, item).await,
            SimPq::NumaPq(q) => q.insert(ctx, pri, item).await,
        }
    }

    /// Inserts `(pri, item)`, reporting capacity exhaustion (with the
    /// failing processor and simulated time) instead of panicking.
    pub async fn try_insert(&self, ctx: &ProcCtx, pri: u64, item: u64) -> Result<(), SimPqError> {
        match self {
            SimPq::SingleLock(q) => q.try_insert(ctx, pri, item).await,
            SimPq::HuntEtAl(q) => q.try_insert(ctx, pri, item).await,
            SimPq::SkipList(q) => q.try_insert(ctx, pri, item).await,
            SimPq::SimpleLinear(q) => q.try_insert(ctx, pri, item).await,
            SimPq::SimpleTree(q) => q.try_insert(ctx, pri, item).await,
            SimPq::LinearFunnels(q) => q.try_insert(ctx, pri, item).await,
            SimPq::FunnelTree(q) => q.try_insert(ctx, pri, item).await,
            SimPq::HardwareTree(q) => q.try_insert(ctx, pri, item).await,
            SimPq::MultiQueue(q) => q.try_insert(ctx, pri, item).await,
            SimPq::NumaPq(q) => q.try_insert(ctx, pri, item).await,
        }
    }

    /// Removes an item of minimal priority, if one is reachable.
    pub async fn delete_min(&self, ctx: &ProcCtx) -> Option<(u64, u64)> {
        match self {
            SimPq::SingleLock(q) => q.delete_min(ctx).await,
            SimPq::HuntEtAl(q) => q.delete_min(ctx).await,
            SimPq::SkipList(q) => q.delete_min(ctx).await,
            SimPq::SimpleLinear(q) => q.delete_min(ctx).await,
            SimPq::SimpleTree(q) => q.delete_min(ctx).await,
            SimPq::LinearFunnels(q) => q.delete_min(ctx).await,
            SimPq::FunnelTree(q) => q.delete_min(ctx).await,
            SimPq::HardwareTree(q) => q.delete_min(ctx).await,
            SimPq::MultiQueue(q) => q.delete_min(ctx).await,
            SimPq::NumaPq(q) => q.delete_min(ctx).await,
        }
    }

    /// Inserts a whole batch, reporting capacity exhaustion instead of
    /// panicking. `SingleLock`, `SkipList`, and `MultiQueue` take their
    /// native batched paths (one lock hold / one threading check per run /
    /// one sticky absorption); the other algorithms loop over
    /// [`try_insert`](Self::try_insert), matching the trait-level default
    /// on the native side. On `Err` an already-filed prefix stays filed.
    pub async fn insert_batch(
        &self,
        ctx: &ProcCtx,
        batch: &[(u64, u64)],
    ) -> Result<(), SimPqError> {
        match self {
            SimPq::SingleLock(q) => q.insert_batch(ctx, batch).await,
            SimPq::SkipList(q) => q.insert_batch(ctx, batch).await,
            SimPq::MultiQueue(q) => q.insert_batch(ctx, batch).await,
            _ => {
                for &(pri, item) in batch {
                    self.try_insert(ctx, pri, item).await?;
                }
                Ok(())
            }
        }
    }

    /// Removes up to `k` minimal items, appending to `out`; returns the
    /// number taken. The three algorithms with native batched drains use
    /// them; the rest loop over [`delete_min`](Self::delete_min), stopping
    /// at the first `None`.
    pub async fn delete_min_batch(
        &self,
        ctx: &ProcCtx,
        k: usize,
        out: &mut Vec<(u64, u64)>,
    ) -> usize {
        match self {
            SimPq::SingleLock(q) => q.delete_min_batch(ctx, k, out).await,
            SimPq::SkipList(q) => q.delete_min_batch(ctx, k, out).await,
            SimPq::MultiQueue(q) => q.delete_min_batch(ctx, k, out).await,
            _ => {
                let mut taken = 0;
                while taken < k {
                    match self.delete_min(ctx).await {
                        Some(e) => {
                            out.push(e);
                            taken += 1;
                        }
                        None => break,
                    }
                }
                taken
            }
        }
    }

    /// Host-side item count: reads simulated memory directly with no
    /// simulated cost. Meaningful only at quiescence; errors if a chain
    /// walk finds corruption.
    pub fn peek_len(&self, m: &Machine) -> Result<u64, String> {
        match self {
            SimPq::SingleLock(q) => Ok(q.peek_len(m)),
            SimPq::HuntEtAl(q) => Ok(q.peek_len(m)),
            SimPq::SkipList(q) => Ok(q.peek_len(m)),
            SimPq::SimpleLinear(q) => q.peek_len(m),
            SimPq::SimpleTree(q) => q.peek_len(m),
            SimPq::LinearFunnels(q) => q.peek_len(m),
            SimPq::FunnelTree(q) => q.peek_len(m),
            SimPq::HardwareTree(q) => q.peek_len(m),
            SimPq::MultiQueue(q) => Ok(q.peek_len(m)),
            SimPq::NumaPq(q) => Ok(q.peek_len(m)),
        }
    }

    /// Validates the structure's own invariants at quiescence — locks
    /// free, heap/list/counter shape consistent — and returns the number
    /// of items currently stored. Host-side only; call after
    /// [`Machine::run`] returns quiescent.
    pub fn validate(&self, m: &Machine) -> Result<u64, String> {
        match self {
            SimPq::SingleLock(q) => q.validate(m),
            SimPq::HuntEtAl(q) => q.validate(m),
            SimPq::SkipList(q) => q.validate(m),
            SimPq::SimpleLinear(q) => q.validate(m),
            SimPq::SimpleTree(q) => q.validate(m),
            SimPq::LinearFunnels(q) => q.validate(m),
            SimPq::FunnelTree(q) => q.validate(m),
            SimPq::HardwareTree(q) => q.validate(m),
            SimPq::MultiQueue(q) => q.validate(m),
            SimPq::NumaPq(q) => q.validate(m),
        }
    }
}
