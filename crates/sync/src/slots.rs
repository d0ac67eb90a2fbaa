//! Collision-layer slot arrays for the combining funnels.
//!
//! A funnel layer is an array of word-sized slots that concurrent threads
//! swap their ids through. Densely packed, 16 slots would share one
//! 128-byte padding unit and every collision attempt would drag
//! neighbouring slots' lines through the coherence protocol — false
//! sharing on the structure whose whole job is spreading contention — so
//! each slot gets its own line.

use std::sync::atomic::{AtomicUsize, Ordering};

use funnelpq_util::CachePadded;

/// One combining layer's slots: `slot` holds `tid + 1`, or 0 for nobody.
#[derive(Debug)]
pub(crate) struct SlotArray(Box<[CachePadded<AtomicUsize>]>);

impl SlotArray {
    pub(crate) fn new(width: usize) -> Self {
        SlotArray(
            (0..width)
                .map(|_| CachePadded::new(AtomicUsize::new(0)))
                .collect(),
        )
    }

    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    #[inline]
    pub(crate) fn swap(&self, slot: usize, val: usize, order: Ordering) -> usize {
        // ORDERING: the caller's; each call site justifies its own (AcqRel
        // in the funnels' collision step).
        self.0[slot].swap(val, order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swap_and_size() {
        let a = SlotArray::new(4);
        assert_eq!(a.len(), 4);
        // ORDERING: AcqRel on all three swaps, as at the funnels' call
        // sites; one thread, so any ordering gives these values.
        assert_eq!(a.swap(2, 7, Ordering::AcqRel), 0);
        assert_eq!(a.swap(2, 9, Ordering::AcqRel), 7);
        assert_eq!(a.swap(3, 1, Ordering::AcqRel), 0);
    }
}
