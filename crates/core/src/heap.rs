//! Sequential binary min-heap used by the lock-based queues and as the
//! reference model in tests.
//!
//! A sift lifts the moving entry out once into a private `Hole`, moves each
//! entry it passes into the hole with one copy, and writes the lifted entry
//! once where the hole stops.
//!
//! A caller that takes every entry at once (`take_entries`) gets the array
//! in heap order and turns it into pop order itself
//! (`sort_into_pop_order`), away from whatever guarded the heap.

use std::mem::ManuallyDrop;
use std::ptr;

/// An array-based binary min-heap of `(priority, item)` pairs, smallest
/// priority first. Ties are broken arbitrarily.
///
/// # Examples
///
/// ```
/// use funnelpq::heap::BinaryHeap;
/// let mut h = BinaryHeap::new();
/// h.push(3, 'c');
/// h.push(1, 'a');
/// h.push(2, 'b');
/// assert_eq!(h.pop(), Some((1, 'a')));
/// assert_eq!(h.peek_priority(), Some(2));
/// ```
#[derive(Debug, Clone, Default)]
pub struct BinaryHeap<T> {
    entries: Vec<(usize, T)>,
}

impl<T> BinaryHeap<T> {
    /// Creates an empty heap.
    pub fn new() -> Self {
        BinaryHeap {
            entries: Vec::new(),
        }
    }

    /// Creates an empty heap with room for `cap` entries.
    pub fn with_capacity(cap: usize) -> Self {
        BinaryHeap {
            entries: Vec::with_capacity(cap),
        }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Smallest stored priority, if any.
    pub fn peek_priority(&self) -> Option<usize> {
        self.entries.first().map(|e| e.0)
    }

    /// Inserts an item under a priority.
    pub fn push(&mut self, pri: usize, item: T) {
        self.entries.push((pri, item));
        self.sift_up(self.entries.len() - 1);
    }

    /// Fused pop + push: swaps a smallest-priority entry for `(pri, item)`
    /// with a single sift from the root, instead of a pop's sift-down plus
    /// a push's sift-up. Returns the removed entry, or `None` when the heap
    /// was empty (the new entry is still inserted).
    pub fn replace_min(&mut self, pri: usize, item: T) -> Option<(usize, T)> {
        if self.entries.is_empty() {
            self.entries.push((pri, item));
            return None;
        }
        Some(self.replace_root((pri, item)))
    }

    /// Moves every entry into `spare`, which must be empty, and keeps
    /// `spare`'s allocation in their place: one pointer swap. The entries
    /// arrive in heap order; [`sort_into_pop_order`] turns them into the
    /// sequence `pop` would have returned.
    pub(crate) fn take_entries(&mut self, spare: &mut Vec<(usize, T)>) {
        debug_assert!(spare.is_empty(), "entries in `spare` skip the sift");
        std::mem::swap(&mut self.entries, spare);
    }

    /// Where the entries are stored, for tests that follow the buffer.
    #[cfg(test)]
    pub(crate) fn as_ptr(&self) -> *const (usize, T) {
        self.entries.as_ptr()
    }

    /// Removes and returns a smallest-priority entry.
    pub fn pop(&mut self) -> Option<(usize, T)> {
        let last = self.entries.pop()?;
        if self.entries.is_empty() {
            return Some(last);
        }
        Some(self.replace_root(last))
    }

    /// Moves the entry at `pos` up while it is strictly smaller than its
    /// parent.
    fn sift_up(&mut self, pos: usize) {
        let mut hole = Hole::new(&mut self.entries, pos);
        while hole.pos() > 0 {
            let parent = (hole.pos() - 1) / 2;
            // SAFETY: parent < hole.pos() < len, so parent is in bounds and
            // is not the hole.
            if hole.element().0 >= unsafe { hole.get(parent) }.0 {
                break;
            }
            // SAFETY: as above.
            unsafe { hole.move_to(parent) };
        }
    }

    /// Takes the root out, sifts `elt` down from the root in its place
    /// ([`sift_down`]) and returns the old root.
    fn replace_root(&mut self, elt: (usize, T)) -> (usize, T) {
        let (hole, root) = Hole::replacing(&mut self.entries, 0, elt);
        sift_down(hole);
        root
    }
}

/// Turns `entries`, a heap array as [`BinaryHeap::take_entries`] hands it
/// over, into ascending pop order in place: the exact `(pri, item)`
/// sequence, ties included, that popping the heap empty returns. Each step
/// is `pop` on the shrinking prefix `entries[..=end]`: the last entry goes
/// to the root, [`sift_down`] runs there on `entries[..end]` with `pop`'s
/// comparisons, and the old root lands at `end`. That leaves the pops
/// last-first, so the array is reversed at the end.
pub(crate) fn sort_into_pop_order<T>(entries: &mut [(usize, T)]) {
    for end in (1..entries.len()).rev() {
        entries.swap(0, end);
        sift_down(Hole::new(&mut entries[..end], 0));
    }
    entries.reverse();
}

/// Sifts the hole's entry down through the hole's slice. The hole moves to
/// the smaller child (the left one on a tie) while that child is strictly
/// smaller than the entry; which of two equal priorities leaves first
/// depends on exactly these comparisons, and the twins and tape pins
/// compare items. Always inlined, so `pop` keeps the loop in its own body.
#[inline(always)]
fn sift_down<T>(mut hole: Hole<'_, (usize, T)>) {
    let n = hole.len();
    loop {
        let left = 2 * hole.pos() + 1;
        if left >= n {
            break;
        }
        let right = left + 1;
        // SAFETY: left < n and right < n are checked; both exceed
        // hole.pos(), so neither is the hole.
        let child = if right < n && unsafe { hole.get(right).0 < hole.get(left).0 } {
            right
        } else {
            left
        };
        // SAFETY: child is left or right, in bounds and not the hole.
        if unsafe { hole.get(child) }.0 >= hole.element().0 {
            break;
        }
        // SAFETY: as above.
        unsafe { hole.move_to(child) };
    }
}

/// A slot of `data` whose entry has been lifted out into `elt`. Between
/// construction and `Drop` the slot at `pos` holds a stale bitwise copy that
/// nothing reads or drops; `Drop` writes `elt` there, so every entry is owned
/// exactly once again however the sift ends. Invariant: `pos < data.len()`.
struct Hole<'a, E> {
    data: &'a mut [E],
    elt: ManuallyDrop<E>,
    pos: usize,
}

impl<'a, E> Hole<'a, E> {
    /// Lifts the entry at `pos` out, leaving a hole there.
    fn new(data: &'a mut [E], pos: usize) -> Self {
        assert!(pos < data.len(), "hole at {pos} outside {}", data.len());
        // SAFETY: pos is in bounds (asserted). The value read now lives in
        // `elt` alone: the slot is not read or dropped again until `Drop`
        // overwrites it.
        let elt = unsafe { ptr::read(data.as_ptr().add(pos)) };
        Hole {
            data,
            elt: ManuallyDrop::new(elt),
            pos,
        }
    }

    /// Lifts the entry at `pos` out and returns it; `elt` becomes the
    /// entry written into the hole at the end.
    fn replacing(data: &'a mut [E], pos: usize, elt: E) -> (Self, E) {
        let mut hole = Hole::new(data, pos);
        let out = std::mem::replace(&mut *hole.elt, elt);
        (hole, out)
    }

    fn len(&self) -> usize {
        self.data.len()
    }

    fn pos(&self) -> usize {
        self.pos
    }

    /// The lifted entry.
    fn element(&self) -> &E {
        &self.elt
    }

    /// The entry at `index`.
    ///
    /// # Safety
    ///
    /// `index < self.len()` and `index != self.pos()`.
    unsafe fn get(&self, index: usize) -> &E {
        debug_assert!(index < self.data.len() && index != self.pos);
        // SAFETY: in bounds by the caller's contract, and not the hole, so
        // the slot holds a live entry.
        unsafe { self.data.get_unchecked(index) }
    }

    /// Moves the entry at `index` into the hole; the hole moves to `index`.
    ///
    /// # Safety
    ///
    /// `index < self.len()` and `index != self.pos()`.
    unsafe fn move_to(&mut self, index: usize) {
        debug_assert!(index < self.data.len() && index != self.pos);
        let base = self.data.as_mut_ptr();
        // SAFETY: index (caller's contract) and pos (the invariant) are in
        // bounds and distinct, so the one-entry copy stays inside `data` and
        // does not overlap. The live entry at index now sits at pos, and
        // index becomes the hole, holding a stale copy nothing drops.
        unsafe { ptr::copy_nonoverlapping(base.add(index), base.add(self.pos), 1) };
        self.pos = index;
    }
}

impl<E> Drop for Hole<'_, E> {
    fn drop(&mut self) {
        // SAFETY: pos < len by the invariant, and the slot at pos is the
        // hole, whose stale copy is overwritten without being dropped; `elt`
        // is `ManuallyDrop` and is not used again, so the written entry has
        // exactly one owner.
        unsafe { ptr::copy_nonoverlapping(&*self.elt, self.data.as_mut_ptr().add(self.pos), 1) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use funnelpq_util::XorShift64Star;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A heap that swaps two entries per level, with `pop` as
    /// `swap(0, last)` + `Vec::pop`: the model whose pop order, ties
    /// included, the hole sifts must reproduce.
    struct SwapHeap<T> {
        entries: Vec<(usize, T)>,
    }

    impl<T> SwapHeap<T> {
        fn push(&mut self, pri: usize, item: T) {
            self.entries.push((pri, item));
            let mut i = self.entries.len() - 1;
            while i > 0 {
                let parent = (i - 1) / 2;
                if self.entries[i].0 < self.entries[parent].0 {
                    self.entries.swap(i, parent);
                    i = parent;
                } else {
                    break;
                }
            }
        }

        fn replace_min(&mut self, pri: usize, item: T) -> Option<(usize, T)> {
            if self.entries.is_empty() {
                self.entries.push((pri, item));
                return None;
            }
            let out = std::mem::replace(&mut self.entries[0], (pri, item));
            self.sift_down();
            Some(out)
        }

        fn pop(&mut self) -> Option<(usize, T)> {
            if self.entries.is_empty() {
                return None;
            }
            let last = self.entries.len() - 1;
            self.entries.swap(0, last);
            let out = self.entries.pop();
            if !self.entries.is_empty() {
                self.sift_down();
            }
            out
        }

        fn sift_down(&mut self) {
            let n = self.entries.len();
            let mut i = 0;
            loop {
                let l = 2 * i + 1;
                let r = l + 1;
                let mut smallest = i;
                if l < n && self.entries[l].0 < self.entries[smallest].0 {
                    smallest = l;
                }
                if r < n && self.entries[r].0 < self.entries[smallest].0 {
                    smallest = r;
                }
                if smallest == i {
                    return;
                }
                self.entries.swap(i, smallest);
                i = smallest;
            }
        }
    }

    #[test]
    fn returns_what_the_swapping_heap_returns_tie_for_tie() {
        // 64 priorities keep ties dense; every item is distinct, so a tie
        // broken the other way shows as a different item. Each seed grows
        // the heap past 12 levels, then drains it.
        const OPS: usize = 40_000;
        for seed in [0x4845_4150, 7, 0xdead_beef] {
            let mut rng = XorShift64Star::new(seed);
            let mut hole = BinaryHeap::new();
            let mut model = SwapHeap {
                entries: Vec::new(),
            };
            for step in 0..OPS {
                let pri = rng.below(64) as usize;
                let push_share = if step < OPS / 2 { 70 } else { 30 };
                let draw = rng.below(100);
                if draw < push_share {
                    hole.push(pri, step);
                    model.push(pri, step);
                } else if draw < push_share + 15 {
                    let (a, b) = (hole.replace_min(pri, step), model.replace_min(pri, step));
                    assert_eq!(a, b, "seed {seed:#x} step {step}: replace_min");
                } else {
                    assert_eq!(hole.pop(), model.pop(), "seed {seed:#x} step {step}: pop");
                }
                assert_eq!(hole.len(), model.entries.len());
                assert_eq!(hole.peek_priority(), model.entries.first().map(|e| e.0));
            }
            while let Some(e) = model.pop() {
                assert_eq!(hole.pop(), Some(e), "seed {seed:#x}: final drain");
            }
            assert!(hole.is_empty());
        }
    }

    /// An item that counts its drops in a shared tally, one slot per id.
    struct Counted {
        id: usize,
        drops: Rc<RefCell<Vec<u32>>>,
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            self.drops.borrow_mut()[self.id] += 1;
        }
    }

    #[test]
    fn every_item_is_dropped_exactly_once() {
        const ITEMS: usize = 400;
        let drops = Rc::new(RefCell::new(vec![0u32; ITEMS]));
        let item = |id| Counted {
            id,
            drops: Rc::clone(&drops),
        };
        let dropped = || drops.borrow().iter().map(|&d| d as usize).sum::<usize>();
        let mut rng = XorShift64Star::new(0xd20b);
        let mut h = BinaryHeap::new();
        for id in 0..200 {
            h.push(rng.below(16) as usize, item(id));
        }
        assert_eq!(dropped(), 0, "a push dropped an item");
        for k in 0..60 {
            let (_, out) = h.pop().expect("the heap holds items");
            drop(out);
            assert_eq!(dropped(), k + 1, "a pop dropped other than the one item");
        }
        for (k, id) in (200..300).enumerate() {
            let out = h.replace_min(rng.below(16) as usize, item(id));
            drop(out.expect("the heap holds items"));
            assert_eq!(
                dropped(),
                61 + k,
                "replace_min dropped other than the one item"
            );
        }
        let mut fresh = BinaryHeap::new();
        assert!(fresh.replace_min(3, item(300)).is_none());
        assert_eq!(
            dropped(),
            160,
            "replace_min on an empty heap dropped its item"
        );
        drop(fresh);
        assert_eq!(dropped(), 161);
        for id in 301..ITEMS {
            h.push(rng.below(16) as usize, item(id));
        }
        drop(h);
        assert!(
            drops.borrow().iter().all(|&d| d == 1),
            "drop counts {:?}",
            drops.borrow()
        );
    }

    #[test]
    fn a_taken_array_sorts_into_the_sequence_popping_returns() {
        // 8 priorities over up to 64 entries keep ties dense; every item is
        // distinct, so a tie broken other than `pop` breaks it shows. A few
        // pops before the take vary the array's shape beyond what pushes
        // alone build.
        const CASES: usize = 10_000;
        let mut rng = XorShift64Star::new(0x7a4e);
        for case in 0..CASES {
            let len = rng.below(65) as usize;
            let pops = rng.below(9) as usize;
            let drops = Rc::new(RefCell::new(vec![0u32; len + pops]));
            let mut taken = BinaryHeap::new();
            let mut popped = BinaryHeap::new();
            for id in 0..len + pops {
                let pri = rng.below(8) as usize;
                taken.push(
                    pri,
                    Counted {
                        id,
                        drops: Rc::clone(&drops),
                    },
                );
                popped.push(pri, id);
            }
            for _ in 0..pops {
                let (a, b) = (taken.pop().unwrap(), popped.pop().unwrap());
                assert_eq!((a.0, a.1.id), b, "case {case}: a pop before the take");
            }
            let mut want = Vec::new();
            while let Some(e) = popped.pop() {
                want.push(e);
            }
            let mut got = Vec::new();
            taken.take_entries(&mut got);
            assert!(taken.is_empty());
            sort_into_pop_order(&mut got);
            let got_ids: Vec<_> = got.iter().map(|(pri, c)| (*pri, c.id)).collect();
            assert_eq!(got_ids, want, "case {case}: {len} entries");
            let dropped = || drops.borrow().iter().map(|&d| d as usize).sum::<usize>();
            assert_eq!(dropped(), pops, "case {case}: the take or sort dropped");
            drop(got);
            assert!(
                drops.borrow().iter().all(|&d| d == 1),
                "case {case}: drop counts {:?}",
                drops.borrow()
            );
        }
    }

    #[test]
    fn pops_in_priority_order() {
        let mut h = BinaryHeap::new();
        for (i, p) in [5usize, 3, 9, 1, 7, 3, 0].iter().enumerate() {
            h.push(*p, i);
        }
        let mut pris = Vec::new();
        while let Some((p, _)) = h.pop() {
            pris.push(p);
        }
        assert_eq!(pris, vec![0, 1, 3, 3, 5, 7, 9]);
    }

    #[test]
    fn empty_behaviour() {
        let mut h: BinaryHeap<()> = BinaryHeap::new();
        assert!(h.is_empty());
        assert_eq!(h.pop(), None);
        assert_eq!(h.peek_priority(), None);
        h.push(2, ());
        assert!(!h.is_empty());
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn replace_min_matches_pop_then_push() {
        let seq = [7usize, 2, 9, 2, 0, 5, 8, 1, 6];
        let mut fused = BinaryHeap::new();
        let mut naive = BinaryHeap::new();
        for (k, &p) in seq.iter().enumerate() {
            fused.push(p, k);
            naive.push(p, k);
        }
        for new_pri in [4usize, 0, 9, 3, 3, 11] {
            let a = fused.replace_min(new_pri, 99);
            let b = naive.pop();
            naive.push(new_pri, 99);
            assert_eq!(a.map(|e| e.0), b.map(|e| e.0));
        }
        let drain = |mut h: BinaryHeap<usize>| {
            let mut v = Vec::new();
            while let Some((p, _)) = h.pop() {
                v.push(p);
            }
            v
        };
        assert_eq!(drain(fused), drain(naive));
    }

    #[test]
    fn replace_min_on_empty_inserts() {
        let mut h = BinaryHeap::new();
        assert_eq!(h.replace_min(3, 'x'), None);
        assert_eq!(h.pop(), Some((3, 'x')));
    }

    #[test]
    fn interleaved_push_pop_matches_sorted_model() {
        let mut h = BinaryHeap::new();
        let mut model: Vec<usize> = Vec::new();
        let seq = [3usize, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5];
        for (k, &p) in seq.iter().enumerate() {
            h.push(p, k);
            model.push(p);
            if k % 3 == 2 {
                model.sort_unstable();
                let want = model.remove(0);
                assert_eq!(h.pop().map(|e| e.0), Some(want));
            }
        }
    }
}
