//! Collision-layer slot arrays for the combining funnels, in padded and
//! compact flavours.
//!
//! A funnel layer is an array of word-sized slots that concurrent threads
//! swap their ids through. Densely packed, 16 slots share one 128-byte
//! padding unit, so every collision attempt drags neighbouring slots'
//! lines through the coherence protocol — false sharing on the structure
//! whose whole job is spreading contention. The padded flavour gives each
//! slot its own line; the compact flavour keeps the historical dense
//! layout so the difference stays measurable (`FunnelConfig::pad_slots`).

use std::sync::atomic::{AtomicUsize, Ordering};

use funnelpq_util::CachePadded;

/// One combining layer's slots: `slot` holds `tid + 1`, or 0 for nobody.
#[derive(Debug)]
pub(crate) enum SlotArray {
    /// One slot per cache line (the default).
    Padded(Box<[CachePadded<AtomicUsize>]>),
    /// Dense slots, multiple per line (the pre-padding layout).
    Compact(Box<[AtomicUsize]>),
}

impl SlotArray {
    pub(crate) fn new(width: usize, padded: bool) -> Self {
        if padded {
            SlotArray::Padded(
                (0..width)
                    .map(|_| CachePadded::new(AtomicUsize::new(0)))
                    .collect(),
            )
        } else {
            SlotArray::Compact((0..width).map(|_| AtomicUsize::new(0)).collect())
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            SlotArray::Padded(s) => s.len(),
            SlotArray::Compact(s) => s.len(),
        }
    }

    #[inline]
    pub(crate) fn swap(&self, slot: usize, val: usize, order: Ordering) -> usize {
        match self {
            SlotArray::Padded(s) => s[slot].swap(val, order),
            SlotArray::Compact(s) => s[slot].swap(val, order),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_flavours_swap_and_size() {
        for padded in [true, false] {
            let a = SlotArray::new(4, padded);
            assert_eq!(a.len(), 4);
            assert_eq!(a.swap(2, 7, Ordering::AcqRel), 0);
            assert_eq!(a.swap(2, 9, Ordering::AcqRel), 7);
            assert_eq!(a.swap(3, 1, Ordering::AcqRel), 0);
        }
    }
}
