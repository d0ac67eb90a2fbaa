//! The bounded-range concurrent priority queue interface.

use crate::algorithm::Algorithm;

/// Why an insert was rejected. Carries the item back so callers can retry
/// or recover it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PqError<T> {
    /// `tid >= max_threads()`.
    TidOutOfRange {
        /// The offending thread id.
        tid: usize,
        /// The queue's thread-id bound.
        max_threads: usize,
        /// The item that was not inserted.
        item: T,
    },
    /// `pri >= num_priorities()`.
    PriorityOutOfRange {
        /// The offending priority.
        pri: usize,
        /// The queue's priority bound.
        num_priorities: usize,
        /// The item that was not inserted.
        item: T,
    },
    /// The queue's fixed capacity is full (only queues with a construction-
    /// time capacity, e.g. `HuntPq`, report this).
    CapacityExhausted {
        /// The item that was not inserted.
        item: T,
    },
}

impl<T> PqError<T> {
    /// Recovers the item the rejected insert carried.
    pub fn into_item(self) -> T {
        match self {
            PqError::TidOutOfRange { item, .. }
            | PqError::PriorityOutOfRange { item, .. }
            | PqError::CapacityExhausted { item } => item,
        }
    }
}

impl<T> std::fmt::Display for PqError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PqError::TidOutOfRange {
                tid, max_threads, ..
            } => {
                write!(f, "tid {tid} out of range (max_threads {max_threads})")
            }
            PqError::PriorityOutOfRange {
                pri,
                num_priorities,
                ..
            } => {
                write!(
                    f,
                    "priority {pri} out of range (num_priorities {num_priorities})"
                )
            }
            PqError::CapacityExhausted { .. } => write!(f, "queue capacity exhausted"),
        }
    }
}

impl<T: std::fmt::Debug> std::error::Error for PqError<T> {}

/// Why a batched insert stopped partway. Carries everything that was *not*
/// filed, so the caller can recover or retry: the failing entry rides in
/// [`PqBatchError::error`] (a [`PqError`] holding its item), the remaining
/// unconsumed entries in [`PqBatchError::rest`].
///
/// The contract is conservation, not order: the entries successfully filed
/// before the error plus [`PqBatchError::into_unconsumed`] partition the
/// submitted batch exactly, but implementations may file a batch in any
/// order (sorted, sharded), so *which* entries were consumed — and the
/// order of `rest` — is unspecified.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PqBatchError<T> {
    /// The rejection the failing entry hit, carrying its item.
    pub error: PqError<T>,
    /// The priority the failing entry was submitted under.
    pub failed_pri: usize,
    /// Every other entry that was not filed, in unspecified order.
    pub rest: Vec<(usize, T)>,
}

impl<T> PqBatchError<T> {
    /// Recovers every entry the batch did not file: the failing entry
    /// first, then the rest. Together with the entries already filed this
    /// is exactly the submitted batch.
    pub fn into_unconsumed(self) -> Vec<(usize, T)> {
        let mut v = Vec::with_capacity(1 + self.rest.len());
        v.push((self.failed_pri, self.error.into_item()));
        v.extend(self.rest);
        v
    }

    /// Number of entries that were not filed (failing entry included).
    pub fn unconsumed_len(&self) -> usize {
        1 + self.rest.len()
    }
}

impl<T> std::fmt::Display for PqBatchError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "batch insert stopped with {} entries unconsumed: {}",
            self.unconsumed_len(),
            self.error
        )
    }
}

impl<T: std::fmt::Debug> std::error::Error for PqBatchError<T> {}

// Keeps the panic formatting machinery out of the inlined `insert` fast
// path (it costs measurable ns/op on the cheapest queues otherwise).
#[cold]
#[inline(never)]
pub(crate) fn reject(e: &dyn std::fmt::Display) -> ! {
    panic!("{e}");
}

/// Builds a [`PqBatchError`] out of a still-owned batch: entry `idx` is the
/// failing one (its error built by `make`), everything else becomes `rest`.
/// For overrides that validate or fail before consuming any entry; kept
/// cold so batch fast paths don't inline the Vec surgery.
#[cold]
#[inline(never)]
pub(crate) fn batch_reject<T>(
    mut batch: Vec<(usize, T)>,
    idx: usize,
    make: impl FnOnce(usize, T) -> PqError<T>,
) -> PqBatchError<T> {
    let (pri, item) = batch.swap_remove(idx);
    PqBatchError {
        error: make(pri, item),
        failed_pri: pri,
        rest: batch,
    }
}

/// The argument check every `try_insert` opens with: hands `item` back for
/// filing, or returns it inside the [`PqError`] naming the bound `tid` or
/// `pri` broke. `replace_min` overrides run it on `()` and [`reject`].
#[inline]
pub(crate) fn check_insert<T>(
    tid: usize,
    pri: usize,
    max_threads: usize,
    num_priorities: usize,
    item: T,
) -> Result<T, PqError<T>> {
    if tid >= max_threads {
        return Err(PqError::TidOutOfRange {
            tid,
            max_threads,
            item,
        });
    }
    if pri >= num_priorities {
        return Err(PqError::PriorityOutOfRange {
            pri,
            num_priorities,
            item,
        });
    }
    Ok(item)
}

/// The argument check every `insert_batch` override opens with, run before
/// anything is filed: hands a non-empty `batch` back untouched, or rejects
/// it whole — a bad `tid` blames entry 0, a bad priority the first entry
/// carrying one. Inlined for the scan; the rejection itself stays in the
/// cold [`batch_reject`].
#[inline]
pub(crate) fn check_batch<T>(
    tid: usize,
    batch: Vec<(usize, T)>,
    max_threads: usize,
    num_priorities: usize,
) -> Result<Vec<(usize, T)>, PqBatchError<T>> {
    if tid >= max_threads {
        return Err(batch_reject(batch, 0, |_, item| PqError::TidOutOfRange {
            tid,
            max_threads,
            item,
        }));
    }
    if let Some(bad) = batch.iter().position(|&(pri, _)| pri >= num_priorities) {
        return Err(batch_reject(batch, bad, |pri, item| {
            PqError::PriorityOutOfRange {
                pri,
                num_priorities,
                item,
            }
        }));
    }
    Ok(batch)
}

/// Splits a batch into its runs of equal priority and hands each to `file`
/// as `(pri, entries)`, largest priority value first: runs come off the
/// sorted batch's tail, and a caller that files the most urgent bin last
/// leaves it warm for the `delete_min` that follows (filing smallest first
/// measured 10–18 % lower on `pqbench native_batch`). The sort is stable, so
/// a run keeps submission order — the order a FIFO bin must see. For the
/// bin-per-priority queues, where a run is what one bin episode can absorb.
pub(crate) fn for_each_run<T>(
    mut batch: Vec<(usize, T)>,
    mut file: impl FnMut(usize, std::vec::Drain<'_, (usize, T)>),
) {
    batch.sort_by_key(|&(pri, _)| pri);
    while let Some(&(pri, _)) = batch.last() {
        let start = batch.partition_point(|&(p, _)| p < pri);
        file(pri, batch.drain(start..));
    }
}

/// A concurrent priority queue over the fixed priority range
/// `0..num_priorities()`, where **smaller is more urgent**.
///
/// This is the interface from §2 of the paper: `insert` files an item under
/// a priority, `delete_min` removes an item of the smallest priority
/// currently present. Construct implementations uniformly with
/// [`crate::PqBuilder`], or directly through each type's constructors.
///
/// # Thread ids
///
/// Implementations based on combining funnels coordinate through dense
/// per-thread records, so every operation takes the caller's thread id
/// (`0..max_threads()`). Two threads using one id concurrently is a logic
/// error — results may be wrong — but never memory-unsafe. Lock-based
/// implementations ignore the id (but still validate it).
///
/// # Panic policy
///
/// The fallible form of insertion is [`BoundedPq::try_insert`], which
/// reports rejected arguments (and exhausted fixed capacity) as a
/// [`PqError`] carrying the item back. [`BoundedPq::insert`] is a thin
/// wrapper that panics with the error's message instead; `delete_min`
/// panics on a tid outside `0..max_threads()`. Nothing else in the
/// interface panics.
///
/// # Consistency
///
/// Each implementation is either **linearizable** or **quiescently
/// consistent** (see the paper's Appendix B), queryable via
/// [`BoundedPq::consistency`]. Both guarantee that at quiescence the queue
/// contains exactly the un-deleted inserts, and that `k` delete-mins running
/// after a quiescent point with no concurrent inserts return the `k`
/// smallest priorities present.
///
/// # Batched and fused operations
///
/// [`BoundedPq::insert_batch`], [`BoundedPq::delete_min_batch`] and the
/// fused [`BoundedPq::replace_min`] amortize synchronization events over
/// `k` items — the paper's cost model says those events, not the heap
/// arithmetic, are the bottleneck. Semantically a batch is exactly `k`
/// individual operations that happen to run back-to-back: it is **not**
/// atomic, concurrent operations may interleave between its items, and each
/// item takes effect with the queue's usual consistency class. Every queue
/// gets correct loop-over-singles defaults; structures where one
/// synchronization episode can cover the whole batch override them (see
/// `docs/ALGORITHMS.md` §8).
pub trait BoundedPq<T: Send>: Send + Sync {
    /// Which of the paper's algorithms this queue implements.
    fn algorithm(&self) -> Algorithm;

    /// The number of allowed priorities; valid priorities are
    /// `0..num_priorities()`.
    fn num_priorities(&self) -> usize;

    /// Maximum number of distinct thread ids this queue accepts.
    fn max_threads(&self) -> usize;

    /// Inserts `item` with priority `pri`, or returns it inside a
    /// [`PqError`] if `tid`/`pri` is out of range or a fixed-capacity queue
    /// is full. Never panics (see the trait-level panic policy).
    fn try_insert(&self, tid: usize, pri: usize, item: T) -> Result<(), PqError<T>>;

    /// Inserts `item` with priority `pri`, panicking where
    /// [`BoundedPq::try_insert`] would return an error (see the trait-level
    /// panic policy).
    fn insert(&self, tid: usize, pri: usize, item: T) {
        if let Err(e) = self.try_insert(tid, pri, item) {
            reject(&e);
        }
    }

    /// Removes and returns an item with the smallest present priority, or
    /// `None` if the queue appears empty.
    ///
    /// Under concurrency, `None` can also be returned when every item the
    /// operation could reach was raced away (the paper's `delete-min`
    /// likewise may return NULL); callers that know the queue is non-empty
    /// at quiescence can rely on `Some`.
    fn delete_min(&self, tid: usize) -> Option<(usize, T)>;

    /// Files every `(pri, item)` entry of `batch`, or stops at the first
    /// rejection and returns a [`PqBatchError`] carrying everything that
    /// was not filed. Entries may be filed in any order (implementations
    /// sort or shard the batch to amortize synchronization); on error, the
    /// filed entries plus [`PqBatchError::into_unconsumed`] partition the
    /// batch exactly. Not atomic: concurrent operations may interleave
    /// between entries.
    ///
    /// The default loops [`BoundedPq::try_insert`]; overrides amortize one
    /// synchronization episode over the whole batch.
    fn insert_batch(&self, tid: usize, batch: Vec<(usize, T)>) -> Result<(), PqBatchError<T>> {
        let mut it = batch.into_iter();
        while let Some((pri, item)) = it.next() {
            if let Err(error) = self.try_insert(tid, pri, item) {
                return Err(PqBatchError {
                    failed_pri: pri,
                    error,
                    rest: it.collect(),
                });
            }
        }
        Ok(())
    }

    /// Removes up to `k` smallest-priority items, appending them to `out`
    /// in the order deleted, and returns how many were taken. Stops early —
    /// without spinning the remaining attempts — as soon as a delete finds
    /// the queue (apparently) empty. Equivalent to `k` back-to-back
    /// [`BoundedPq::delete_min`] calls, with the same caveat that under
    /// concurrency an early stop does not prove the queue was empty.
    fn delete_min_batch(&self, tid: usize, k: usize, out: &mut Vec<(usize, T)>) -> usize {
        let mut taken = 0;
        while taken < k {
            match self.delete_min(tid) {
                Some(e) => {
                    out.push(e);
                    taken += 1;
                }
                None => break,
            }
        }
        taken
    }

    /// Fused delete-min + insert: removes an item of the smallest present
    /// priority (or `None` if the queue appears empty) and files `item`
    /// under `pri`, in one operation. Heap-backed queues override this to
    /// replace the root and sift once instead of paying two full
    /// synchronization episodes — the Dijkstra/DES inner-loop shape.
    ///
    /// Panics where [`BoundedPq::insert`] would; the default restores the
    /// removed minimum before panicking so no item is lost.
    fn replace_min(&self, tid: usize, pri: usize, item: T) -> Option<(usize, T)> {
        let removed = self.delete_min(tid);
        if let Err(e) = self.try_insert(tid, pri, item) {
            if let Some((p, x)) = removed {
                // The slot we just freed readmits the minimum even in a
                // fixed-capacity queue, so this cannot fail for capacity
                // reasons; ignore the (arg-error) result and report `e`.
                let _ = self.try_insert(tid, p, x);
            }
            reject(&e);
        }
        removed
    }

    /// Whether the item order within one [`BoundedPq::delete_min_batch`]
    /// result reflects this queue's own dequeue policy, even under
    /// concurrent inserts.
    ///
    /// `true` means every out-of-order pair inside a single batch is
    /// attributable to the queue (deliberate relaxation, or none): a
    /// strict backend drains the batch in one synchronization episode and
    /// returns it sorted (SingleLock holds its one lock across the whole
    /// drain), while a relaxed MultiQueue's en-bloc heap pops expose
    /// exactly its rank error. `false` — the conservative default, kept
    /// by multi-episode drains like HuntEtAl's per-iteration root locks
    /// or SkipList's bin walk, and by the loop-over-singles default —
    /// means a concurrent insert landing mid-drain can create inversions
    /// that are *not* rank error (the history still linearizes).
    ///
    /// Online rank-error estimators (the server's telemetry sampler) must
    /// only score batches from queues that return `true`; anything else
    /// would report phantom relaxation for strict backends.
    fn ordered_batch_drain(&self) -> bool {
        false
    }

    /// Advisory emptiness test: a racy read that is exact **only at
    /// quiescence**. Never use it to terminate a loop while other threads
    /// may still insert — count operations instead (a `false` may already be
    /// stale when acted on, and `true` says nothing about in-flight
    /// inserts).
    fn is_empty(&self) -> bool;

    /// The consistency condition the implementation provides.
    fn consistency(&self) -> Consistency {
        self.algorithm().consistency()
    }

    /// Snapshot of the NUMA-adaptive mode controller, for queues that have
    /// one ([`crate::NumaPq`]); `None` — the default — for everything else.
    /// The serving layer surfaces this through its telemetry so mode
    /// hot-swaps are observable from outside the queue.
    fn adaptive_stats(&self) -> Option<crate::AdaptiveStats> {
        None
    }
}

/// Consistency condition offered by a queue (paper Appendix B, plus the
/// post-paper *relaxed* class).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Consistency {
    /// Operations appear to take effect at a point inside their execution
    /// interval, consistently with real-time order.
    Linearizable,
    /// Operations appear to take effect at a point between surrounding
    /// quiescent states; real-time order between overlapping-with-a-common
    /// operation calls may be reordered.
    QuiescentlyConsistent,
    /// `delete_min` may return an item that is *near* the minimum rather
    /// than the minimum itself, even at quiescence — the MultiQueue trade
    /// (Williams, Sanders & Dementiev, "Engineering MultiQueues"). Element
    /// conservation still holds exactly; only the ordering guarantee is
    /// weakened, and the audit layer measures the slack as per-operation
    /// *rank error* instead of asserting sortedness.
    Relaxed,
}

impl std::fmt::Display for Consistency {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Consistency::Linearizable => write!(f, "linearizable"),
            Consistency::QuiescentlyConsistent => write!(f, "quiescently consistent"),
            Consistency::Relaxed => write!(f, "relaxed"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pq_error_messages_and_item_recovery() {
        let e = PqError::PriorityOutOfRange {
            pri: 9,
            num_priorities: 8,
            item: "x",
        };
        assert_eq!(e.to_string(), "priority 9 out of range (num_priorities 8)");
        assert_eq!(e.into_item(), "x");

        let e = PqError::TidOutOfRange {
            tid: 3,
            max_threads: 2,
            item: 7u32,
        };
        assert_eq!(e.to_string(), "tid 3 out of range (max_threads 2)");
        assert_eq!(e.into_item(), 7);

        let e = PqError::CapacityExhausted { item: () };
        assert!(e.to_string().contains("capacity exhausted"));
    }

    #[test]
    fn batch_error_recovers_every_unconsumed_entry() {
        let e = batch_reject(vec![(0, "a"), (9, "b"), (2, "c")], 1, |pri, item| {
            PqError::PriorityOutOfRange {
                pri,
                num_priorities: 8,
                item,
            }
        });
        assert_eq!(e.failed_pri, 9);
        assert_eq!(e.unconsumed_len(), 3);
        assert!(e.to_string().contains("3 entries unconsumed"));
        assert!(e.to_string().contains("priority 9 out of range"));
        let mut back = e.into_unconsumed();
        assert_eq!(back[0], (9, "b"), "failing entry must come first");
        back.sort_unstable();
        assert_eq!(back, vec![(0, "a"), (2, "c"), (9, "b")]);
    }
}
