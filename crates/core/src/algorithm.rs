//! The shared algorithm name list: one enum for both the native queues in
//! this crate and the simulated queues in `funnelpq-simqueues`.

use crate::traits::Consistency;

/// Which of the paper's algorithms to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Heap under one lock (the paper's MCS; natively TTAS).
    SingleLock,
    /// Hunt et al. concurrent heap.
    HuntEtAl,
    /// Bounded-range skip list of bins with a delete bin.
    SkipList,
    /// Array of locked bins, scanned.
    SimpleLinear,
    /// Tree of locked counters over locked bins.
    SimpleTree,
    /// Array of combining-funnel stacks, scanned.
    LinearFunnels,
    /// Tree with funnel counters at the top and funnel-stack bins.
    FunnelTree,
    /// Ablation: tree with hardware fetch-and-add counters. Not one of the
    /// paper's seven (its machine model has no fetch-and-add) and only
    /// buildable on the simulator side — [`crate::PqBuilder`] rejects it.
    HardwareTree,
    /// Relaxed MultiQueue (Williams, Sanders & Dementiev): `c·T` sequential
    /// heaps behind try-locks, delete-min sampling two and popping the
    /// smaller top. Not one of the paper's seven — it trades strict
    /// delete-min for [`Consistency::Relaxed`] ordering — so it stays out
    /// of [`Algorithm::ALL`] and the paper-replication sweeps.
    MultiQueue,
    /// NUMA-adaptive MultiQueue (SmartPQ, arXiv 2406.06900): node-local
    /// heap partitions fronted by a delegation layer, with a live
    /// controller flipping between NUMA-oblivious and delegated serving
    /// from contention signals. Relaxed like the MultiQueue it partitions,
    /// so likewise outside [`Algorithm::ALL`].
    NumaPq,
}

impl Algorithm {
    /// All seven algorithms, in the paper's presentation order.
    pub const ALL: [Algorithm; 7] = [
        Algorithm::SingleLock,
        Algorithm::HuntEtAl,
        Algorithm::SkipList,
        Algorithm::SimpleLinear,
        Algorithm::SimpleTree,
        Algorithm::LinearFunnels,
        Algorithm::FunnelTree,
    ];

    /// The four algorithms the paper carries into its high-concurrency
    /// comparisons (Figures 7–9).
    pub const SCALABLE: [Algorithm; 4] = [
        Algorithm::SimpleLinear,
        Algorithm::SimpleTree,
        Algorithm::LinearFunnels,
        Algorithm::FunnelTree,
    ];

    /// Every variant the workspace knows, paper or not. Name parsing and
    /// tooling sweeps that want "everything buildable somewhere" go through
    /// this; paper-replication sweeps stay on [`Algorithm::ALL`].
    ///
    /// Completeness is compiler-enforced: `roster_index` matches on every
    /// variant, and the `every_is_complete_and_in_roster_order` test pins
    /// this array to it, so adding a variant without extending `EVERY`
    /// fails the build.
    pub const EVERY: [Algorithm; 10] = [
        Algorithm::SingleLock,
        Algorithm::HuntEtAl,
        Algorithm::SkipList,
        Algorithm::SimpleLinear,
        Algorithm::SimpleTree,
        Algorithm::LinearFunnels,
        Algorithm::FunnelTree,
        Algorithm::HardwareTree,
        Algorithm::MultiQueue,
        Algorithm::NumaPq,
    ];

    /// The slot each variant occupies in [`Algorithm::EVERY`]. Exists to
    /// make the variant list `match`-exhaustive in exactly one place: a new
    /// variant fails to compile here (and in `name`/`consistency`/every
    /// builder match) until it is wired through, and the `const` assertion
    /// below pins `EVERY`'s completeness at compile time.
    const fn roster_index(self) -> usize {
        match self {
            Algorithm::SingleLock => 0,
            Algorithm::HuntEtAl => 1,
            Algorithm::SkipList => 2,
            Algorithm::SimpleLinear => 3,
            Algorithm::SimpleTree => 4,
            Algorithm::LinearFunnels => 5,
            Algorithm::FunnelTree => 6,
            Algorithm::HardwareTree => 7,
            Algorithm::MultiQueue => 8,
            Algorithm::NumaPq => 9,
        }
    }

    /// `true` for algorithms with [`Consistency::Relaxed`] semantics, whose
    /// histories are audited with a rank-error bound instead of drain
    /// sortedness.
    pub fn is_relaxed(&self) -> bool {
        self.consistency() == Consistency::Relaxed
    }

    /// The algorithm's name as printed in the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::SingleLock => "SingleLock",
            Algorithm::HuntEtAl => "HuntEtAl",
            Algorithm::SkipList => "SkipList",
            Algorithm::SimpleLinear => "SimpleLinear",
            Algorithm::SimpleTree => "SimpleTree",
            Algorithm::LinearFunnels => "LinearFunnels",
            Algorithm::FunnelTree => "FunnelTree",
            Algorithm::HardwareTree => "HardwareTree",
            Algorithm::MultiQueue => "MultiQueue",
            Algorithm::NumaPq => "NumaPq",
        }
    }

    /// The consistency condition this algorithm provides (paper Appendix B).
    ///
    /// `HuntEtAl` is classified quiescently consistent, not linearizable:
    /// its hand-over-hand sift-down can transiently park a freshly swapped
    /// large value at the root while a smaller settled item sits deeper in
    /// the heap, and a concurrent `delete_min` that locks the root in that
    /// window returns the non-minimal value. The simulated machine's
    /// history audit produces concrete interval counterexamples (a delete
    /// overlapped by nothing returning priority `p` while a smaller item
    /// was present for its whole duration), so the stronger claim does not
    /// hold for this implementation.
    pub fn consistency(&self) -> Consistency {
        match self {
            Algorithm::SingleLock | Algorithm::SimpleLinear => Consistency::Linearizable,
            Algorithm::HuntEtAl
            | Algorithm::SkipList
            | Algorithm::SimpleTree
            | Algorithm::LinearFunnels
            | Algorithm::FunnelTree
            | Algorithm::HardwareTree => Consistency::QuiescentlyConsistent,
            Algorithm::MultiQueue | Algorithm::NumaPq => Consistency::Relaxed,
        }
    }
}

// `EVERY` lists each variant exactly once, in `roster_index` order —
// checked when this crate compiles, not when a test happens to run.
const _: () = {
    let mut i = 0;
    while i < Algorithm::EVERY.len() {
        assert!(Algorithm::EVERY[i].roster_index() == i);
        i += 1;
    }
};

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Algorithm {
    type Err = String;

    /// Parses a paper name (case-insensitive), e.g. `"FunnelTree"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Algorithm::EVERY
            .into_iter()
            .find(|a| a.name().eq_ignore_ascii_case(s))
            .ok_or_else(|| format!("unknown algorithm {s:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_from_str() {
        for a in Algorithm::EVERY {
            assert_eq!(a.name().parse::<Algorithm>().unwrap(), a);
            assert_eq!(a.name().to_lowercase().parse::<Algorithm>().unwrap(), a);
        }
        assert!("nope".parse::<Algorithm>().is_err());
    }

    #[test]
    fn scalable_is_a_subset_of_all() {
        for a in Algorithm::SCALABLE {
            assert!(Algorithm::ALL.contains(&a));
        }
    }

    #[test]
    fn every_is_complete_and_in_roster_order() {
        // ALL is EVERY minus the three non-paper variants, same order.
        let paper: Vec<_> = Algorithm::EVERY
            .into_iter()
            .filter(|a| {
                !matches!(
                    a,
                    Algorithm::HardwareTree | Algorithm::MultiQueue | Algorithm::NumaPq
                )
            })
            .collect();
        assert_eq!(paper, Algorithm::ALL);
    }

    #[test]
    fn multiqueue_is_relaxed_and_not_in_the_paper_sweeps() {
        assert_eq!(Algorithm::MultiQueue.consistency(), Consistency::Relaxed);
        assert!(Algorithm::MultiQueue.is_relaxed());
        assert!(Algorithm::NumaPq.is_relaxed());
        assert!(!Algorithm::FunnelTree.is_relaxed());
        for relaxed in [Algorithm::MultiQueue, Algorithm::NumaPq] {
            assert!(!Algorithm::ALL.contains(&relaxed));
            assert!(!Algorithm::SCALABLE.contains(&relaxed));
        }
    }

    #[test]
    fn paper_consistency_labels() {
        use Consistency::*;
        assert_eq!(Algorithm::SingleLock.consistency(), Linearizable);
        assert_eq!(Algorithm::HuntEtAl.consistency(), QuiescentlyConsistent);
        assert_eq!(Algorithm::SimpleLinear.consistency(), Linearizable);
        assert_eq!(Algorithm::SkipList.consistency(), QuiescentlyConsistent);
        assert_eq!(Algorithm::SimpleTree.consistency(), QuiescentlyConsistent);
        assert_eq!(
            Algorithm::LinearFunnels.consistency(),
            QuiescentlyConsistent
        );
        assert_eq!(Algorithm::FunnelTree.consistency(), QuiescentlyConsistent);
    }
}
