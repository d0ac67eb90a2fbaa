//! Paged storage for the simulator's per-word and per-line state.
//!
//! A structure reserves simulated memory for its worst case (every bin at
//! capacity, every funnel layer at full width) and a run touches a few
//! percent of it. [`Paged`] makes the host pay only for what a run touches:
//! a `u32` page table maps each virtual page to a physical page, and every
//! page that was never written maps to physical page 0, a fill page shared
//! by all of them. Reading is two loads, with no test for whether the page
//! exists; the first write to a page copies the fill page into a fresh one.

use std::ops::{Index, IndexMut};

const PAGE_SHIFT: u32 = 10;
/// Entries per page.
const PAGE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: usize = PAGE - 1;

/// A growable array of `len` entries that all start as one fill value,
/// stored in pages created on first write.
pub(crate) struct Paged<T> {
    /// Physical page of each virtual page; 0 is the fill page.
    table: Vec<u32>,
    /// Physical pages back to back, the fill page first.
    data: Vec<T>,
    len: usize,
}

impl<T: Copy> Paged<T> {
    /// An empty array whose entries read as `fill` until written.
    pub(crate) fn new(fill: T) -> Self {
        Paged {
            table: Vec::new(),
            data: vec![fill; PAGE],
            len: 0,
        }
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Extends the array to `len` entries; the new ones read as the fill
    /// value and cost one page-table slot per page.
    pub(crate) fn grow(&mut self, len: usize) {
        debug_assert!(len >= self.len);
        self.len = len;
        self.table.resize(len.div_ceil(PAGE), 0);
    }

    /// The pages that were written, in index order, as `(index of the
    /// page's first entry, entries)`. Entries past `len` are left out.
    pub(crate) fn pages(&self) -> impl Iterator<Item = (usize, &[T])> + '_ {
        self.table
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p != 0)
            .map(move |(v, &p)| {
                let first = v << PAGE_SHIFT;
                let start = (p as usize) << PAGE_SHIFT;
                let n = PAGE.min(self.len - first);
                (first, &self.data[start..start + n])
            })
    }

    /// Every entry, written or not.
    pub(crate) fn to_vec(&self) -> Vec<T> {
        (0..self.len).map(|i| self[i]).collect()
    }

    /// Pages created so far (the fill page not counted).
    #[cfg(test)]
    pub(crate) fn page_count(&self) -> usize {
        self.data.len() / PAGE - 1
    }
}

impl<T> Index<usize> for Paged<T> {
    type Output = T;

    #[inline]
    fn index(&self, i: usize) -> &T {
        debug_assert!(i < self.len, "index {i} out of {}", self.len);
        let p = self.table[i >> PAGE_SHIFT] as usize;
        &self.data[(p << PAGE_SHIFT) | (i & PAGE_MASK)]
    }
}

/// Writing through an index creates the entry's page if it has none yet.
/// A write past `len` panics in every build, so an entry `grow` has not
/// reached yet still reads as the fill value when it does. (A read past
/// `len` is caught in debug builds only; it stores nothing.)
impl<T: Copy> IndexMut<usize> for Paged<T> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut T {
        assert!(i < self.len, "index {i} out of {}", self.len);
        let v = i >> PAGE_SHIFT;
        if self.table[v] == 0 {
            self.table[v] =
                u32::try_from(self.data.len() >> PAGE_SHIFT).expect("more than u32::MAX pages");
            self.data.extend_from_within(..PAGE);
        }
        let p = self.table[v] as usize;
        &mut self.data[(p << PAGE_SHIFT) | (i & PAGE_MASK)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_the_fill_value_until_written_and_pages_on_first_write() {
        let mut a = Paged::new(7u32);
        a.grow(3 * PAGE + 5);
        assert_eq!(a.page_count(), 0);
        assert_eq!((a[0], a[3 * PAGE + 4]), (7, 7));
        a[PAGE - 1] = 1;
        a[PAGE] = 2;
        a[PAGE + 1] = 3;
        assert_eq!(a.page_count(), 2);
        assert_eq!((a[PAGE - 1], a[PAGE], a[PAGE + 1], a[0]), (1, 2, 3, 7));
        a[3 * PAGE + 4] = 9;
        let pages: Vec<(usize, usize)> = a.pages().map(|(f, s)| (f, s.len())).collect();
        assert_eq!(pages, vec![(0, PAGE), (PAGE, PAGE), (3 * PAGE, 5)]);
        let dense = a.to_vec();
        assert_eq!(dense.len(), 3 * PAGE + 5);
        assert_eq!(dense.iter().filter(|&&x| x != 7).count(), 4);
    }

    #[test]
    #[should_panic(expected = "index 5 out of 5")]
    fn an_index_past_the_length_panics_inside_the_last_page() {
        let mut a = Paged::new(0u64);
        a.grow(5);
        a[5] = 1;
    }
}
