//! The binary tree-of-counters layout (paper Figure 3) shared by
//! `SimpleTree` and `FunnelTree`.
//!
//! The tree has one leaf per priority (padded to a power of two) and a
//! shared counter at every internal node counting the items stored in the
//! leaves of its *left* (smaller-priority) subtree. `delete-min` descends
//! from the root using bounded fetch-and-decrement: a successful decrement
//! *claims* one item in the left subtree; a zero counter routes the search
//! right. Inserts add to the leaf bin first and then ascend, incrementing
//! the counter at every node they reach from the left — the bottom-up order
//! is what makes a claimed item always reachable.
//!
//! A batch is the same two walks made once by a caller that arrives as the
//! root of an already combined tree: `insert_batch` files every item, then
//! adds each touched counter's total in one `fetch_add`, deeper counters
//! before shallower; `delete_min_batch` descends once carrying `c` claims
//! and splits them at every counter.

use std::marker::PhantomData;

use funnelpq_sync::SharedCounter;

use crate::algorithm::Algorithm;
use crate::bin_pq::{Bin, Layout};
use crate::traits::for_each_run;

/// Tree of counters with bins at the leaves, generic over the counter and
/// bin implementations (that choice is the entire difference between
/// `SimpleTree` and `FunnelTree`).
pub struct CounterTree<T, B> {
    /// Number of leaves (power of two ≥ num_priorities).
    n_leaves: usize,
    num_priorities: usize,
    /// Heap-numbered internal nodes 1..n_leaves; index 0 unused.
    counters: Vec<Box<dyn SharedCounter>>,
    bins: Vec<B>,
    _marker: PhantomData<fn() -> T>,
}

impl<T: Send, B: Bin<T>> CounterTree<T, B> {
    /// Builds the tree. `make_counter(depth)` constructs the counter for an
    /// internal node at the given depth (root = 0); `make_bin()` constructs
    /// a leaf bin.
    ///
    /// # Panics
    ///
    /// Panics if `num_priorities` is zero.
    pub(crate) fn new(
        num_priorities: usize,
        mut make_counter: impl FnMut(usize) -> Box<dyn SharedCounter>,
        mut make_bin: impl FnMut() -> B,
    ) -> Self {
        assert!(num_priorities > 0, "need at least one priority");
        let n_leaves = num_priorities.next_power_of_two();
        // counters[k] for k in 1..n_leaves; depth(k) = floor(log2 k).
        let mut counters: Vec<Box<dyn SharedCounter>> = Vec::with_capacity(n_leaves);
        counters.push(make_counter(0)); // index 0: unused placeholder
        for k in 1..n_leaves {
            let depth = usize::BITS as usize - 1 - k.leading_zeros() as usize;
            counters.push(make_counter(depth));
        }
        let bins = (0..num_priorities).map(|_| make_bin()).collect();
        CounterTree {
            n_leaves,
            num_priorities,
            counters,
            bins,
            _marker: PhantomData,
        }
    }

    /// Takes `claims` (at most the caller's `k`, so it fits a `usize`)
    /// into the subtree of `k`. At a counter, `fetch_add(-claims)` grants
    /// `min(prev, claims)` of them an item on the left (T2, for each); the
    /// others look right, as a single does on reading zero. Left before
    /// right, so `out` fills in priority order.
    fn descend(&self, tid: usize, k: usize, claims: i64, out: &mut Vec<(usize, T)>) {
        if k >= self.n_leaves {
            let pri = k - self.n_leaves;
            // A padding leaf holds nothing: the claims that fell off the
            // occupied range found the queue empty.
            if pri < self.num_priorities {
                self.bins[pri].bin_delete_many(tid, claims as usize, |item| out.push((pri, item)));
            }
            return;
        }
        let left = self.counters[k].fetch_add(tid, -claims).min(claims);
        if left > 0 {
            self.descend(tid, 2 * k, left, out);
        }
        if claims > left {
            self.descend(tid, 2 * k + 1, claims - left, out);
        }
    }

    /// Checks, at quiescence, that every counter equals the number of items
    /// in the bins of its left subtree.
    ///
    /// # Panics
    ///
    /// Panics naming the first counter that does not.
    pub(crate) fn validate(&self) {
        for k in 1..self.n_leaves {
            // The leaves under the left child `2k`, as priorities.
            let (mut lo, mut hi) = (2 * k, 2 * k + 1);
            while lo < self.n_leaves {
                lo *= 2;
                hi *= 2;
            }
            let held: usize = (lo..hi)
                .map(|leaf| leaf - self.n_leaves)
                .filter(|&pri| pri < self.num_priorities)
                .map(|pri| self.bins[pri].bin_len())
                .sum();
            assert_eq!(
                self.counters[k].value(),
                held as i64,
                "counter {k} disagrees with the bins of its left subtree"
            );
        }
    }
}

impl<T: Send, B: Bin<T>> Layout<T> for CounterTree<T, B> {
    const ALGORITHM: Algorithm = B::TREE;

    fn num_priorities(&self) -> usize {
        self.num_priorities
    }

    fn insert(&self, tid: usize, pri: usize, item: T) {
        // Bin first, counters after — a counted item is always present.
        self.bins[pri].bin_insert(tid, item);
        let mut k = self.n_leaves + pri;
        while k > 1 {
            let parent = k / 2;
            if k.is_multiple_of(2) {
                // Ascending from a left child: one more item in the left
                // subtree of `parent`.
                self.counters[parent].fetch_inc(tid);
            }
            k = parent;
        }
    }

    fn delete_min(&self, tid: usize) -> Option<(usize, T)> {
        let mut k = 1;
        while k < self.n_leaves {
            // Bounded fetch-and-decrement with bound 0: a positive return
            // claims an item in the left subtree.
            if self.counters[k].fetch_dec(tid) > 0 {
                k *= 2;
            } else {
                k = 2 * k + 1;
            }
        }
        let pri = k - self.n_leaves;
        if pri >= self.num_priorities {
            // Padding leaf: the search fell off the occupied range, so the
            // queue held nothing reachable.
            return None;
        }
        self.bins[pri].bin_delete(tid).map(|item| (pri, item))
    }

    /// Every run goes into its bin first; only then do the counters move,
    /// each by its whole share of the batch in one `fetch_add`, a level at
    /// a time from the leaves up — no counter before every counter below
    /// it. That is the order T1/T2 need: whoever is granted a claim at a
    /// node finds, at every counter on the way down, the items that claim
    /// was granted for. Top-down, a claim granted at the root could reach
    /// a lower counter this batch has not raised yet, be sent right and
    /// miss its item.
    fn insert_batch(&self, tid: usize, batch: Vec<(usize, T)>) {
        // (node, batch items filed below it) for the nodes of one level
        // that the batch reaches, in descending heap index; leaves to
        // begin with.
        let mut level: Vec<(usize, i64)> = Vec::with_capacity(batch.len());
        for_each_run(batch, |pri, run| {
            level.push((self.n_leaves + pri, run.len() as i64));
            self.bins[pri].bin_insert_many(tid, run.map(|(_, item)| item));
        });
        while level[0].0 > 1 {
            let mut kept = 0;
            for at in 0..level.len() {
                let (k, n) = level[at];
                let parent = k / 2;
                if k.is_multiple_of(2) {
                    // `n` more items in the left subtree of `parent`.
                    self.counters[parent].fetch_add(tid, n);
                }
                if kept > 0 && level[kept - 1].0 == parent {
                    level[kept - 1].1 += n;
                } else {
                    level[kept] = (parent, n);
                    kept += 1;
                }
            }
            level.truncate(kept);
        }
    }

    /// One descent carrying up to `k` claims; what they redeem goes to
    /// `out` smaller priorities first.
    fn delete_min_batch(&self, tid: usize, k: usize, out: &mut Vec<(usize, T)>) -> usize {
        // Claims travel as counter deltas. Callers drain with
        // `k = usize::MAX`, and `-(usize::MAX as i64)` is `+1`: clamp
        // before negating — the bins cannot grant more than this anyway.
        let want = i64::try_from(k).unwrap_or(i64::MAX);
        let before = out.len();
        self.descend(tid, 1, want, out);
        out.len() - before
    }

    fn is_empty(&self) -> bool {
        self.bins.iter().all(|b| b.bin_is_empty())
    }
}

impl<T, B> std::fmt::Debug for CounterTree<T, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CounterTree")
            .field("num_priorities", &self.num_priorities)
            .field("n_leaves", &self.n_leaves)
            .finish()
    }
}
