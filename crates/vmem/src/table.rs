//! The page table behind [`AddrSpace`](crate::AddrSpace): a two-level
//! radix tree, the structure a hardware MMU walks.
//!
//! A directory indexed by `page >> 9` points at leaves of 512 page slots
//! (one 2 MiB region, the span of an x86-64 last-level page table). A
//! lookup is two indexed loads. A leaf exists only while at least one of
//! its pages is mapped: it is allocated by the first insert into it and
//! freed by the last removal, so a monotone VA pattern (FFmalloc's
//! one-time allocator, §6) holds host memory only for live regions.
//! Iteration walks the directory in order, so it visits pages sorted by
//! index and skips absent leaves wholesale. Each leaf also counts its
//! committed pages, so a walk for committed pages (root discovery) skips
//! leaves that are mapped but have none, like the untouched bulk of the
//! globals and stack segments.

use std::ops::Range;

use crate::addr::{PageIdx, PageRange};
use crate::page::PageSlot;

/// log2 of the pages one leaf covers.
const LEAF_SHIFT: u32 = 9;
/// Pages per leaf.
const LEAF_PAGES: u64 = 1 << LEAF_SHIFT;

#[derive(Debug)]
struct Leaf {
    slots: [Option<PageSlot>; LEAF_PAGES as usize],
    /// Number of `Some` slots; the leaf is freed when it reaches zero.
    mapped: u32,
    /// Number of committed slots. Commit state changes only through
    /// [`PageTable::commit`], [`PageTable::decommit`] and
    /// [`PageTable::remove`], which keep this count.
    committed: u32,
}

#[inline]
fn split(page: u64) -> (usize, usize) {
    ((page >> LEAF_SHIFT) as usize, (page & (LEAF_PAGES - 1)) as usize)
}

/// Page slots keyed by page index, for pages below a fixed limit.
#[derive(Debug)]
pub(crate) struct PageTable {
    dir: Vec<Option<Box<Leaf>>>,
    limit: u64,
}

impl PageTable {
    /// An empty table that can hold pages `0..limit`. The directory grows
    /// on demand, so only the highest mapped page sets its length.
    pub(crate) fn new(limit: u64) -> Self {
        PageTable { dir: Vec::new(), limit }
    }

    /// One past the highest page index the table can hold.
    pub(crate) fn limit(&self) -> u64 {
        self.limit
    }

    /// Number of resident leaves.
    #[cfg(test)]
    pub(crate) fn leaves(&self) -> usize {
        self.dir.iter().flatten().count()
    }

    #[inline]
    pub(crate) fn get(&self, page: u64) -> Option<&PageSlot> {
        let (d, s) = split(page);
        self.dir.get(d)?.as_deref()?.slots[s].as_ref()
    }

    #[inline]
    pub(crate) fn get_mut(&mut self, page: u64) -> Option<&mut PageSlot> {
        let (d, s) = split(page);
        self.dir.get_mut(d)?.as_deref_mut()?.slots[s].as_mut()
    }

    #[inline]
    pub(crate) fn contains(&self, page: u64) -> bool {
        self.get(page).is_some()
    }

    /// Stores `slot` at the vacant `page`, allocating its leaf if needed.
    ///
    /// # Panics
    ///
    /// Panics if `page` is at or beyond the limit or already occupied;
    /// callers check both first.
    pub(crate) fn insert(&mut self, page: u64, slot: PageSlot) {
        assert!(page < self.limit, "page {page:#x} beyond the page table");
        let (d, s) = split(page);
        if d >= self.dir.len() {
            self.dir.resize_with(d + 1, || None);
        }
        let leaf = self.dir[d].get_or_insert_with(|| {
            Box::new(Leaf { slots: std::array::from_fn(|_| None), mapped: 0, committed: 0 })
        });
        assert!(leaf.slots[s].is_none(), "page {page:#x} already mapped");
        leaf.committed += u32::from(slot.is_committed());
        leaf.slots[s] = Some(slot);
        leaf.mapped += 1;
    }

    /// Removes and returns the slot at `page`, freeing its leaf if it was
    /// the leaf's last page.
    pub(crate) fn remove(&mut self, page: u64) -> Option<PageSlot> {
        let (d, s) = split(page);
        let entry = self.dir.get_mut(d)?;
        let leaf = entry.as_deref_mut()?;
        let slot = leaf.slots[s].take()?;
        leaf.committed -= u32::from(slot.is_committed());
        leaf.mapped -= 1;
        if leaf.mapped == 0 {
            *entry = None;
        }
        Some(slot)
    }

    /// Commits the slot at `page` (see [`PageSlot::commit`]). Returns the
    /// slot and whether it was newly committed, or `None` if `page` is
    /// not mapped.
    pub(crate) fn commit(&mut self, page: u64) -> Option<(&mut PageSlot, bool)> {
        let (d, s) = split(page);
        let leaf = self.dir.get_mut(d)?.as_deref_mut()?;
        let slot = leaf.slots[s].as_mut()?;
        let fresh = slot.commit();
        leaf.committed += u32::from(fresh);
        Some((slot, fresh))
    }

    /// Decommits the slot at `page` (see [`PageSlot::decommit`]). Returns
    /// the slot and whether it was committed, or `None` if `page` is not
    /// mapped.
    pub(crate) fn decommit(&mut self, page: u64) -> Option<(&mut PageSlot, bool)> {
        let (d, s) = split(page);
        let leaf = self.dir.get_mut(d)?.as_deref_mut()?;
        let slot = leaf.slots[s].as_mut()?;
        let was = slot.decommit();
        leaf.committed -= u32::from(was);
        Some((slot, was))
    }

    /// The occupied slots whose pages lie in `range`, in page order.
    /// Absent leaves cost one directory load each.
    pub(crate) fn range(&self, range: PageRange) -> impl Iterator<Item = (PageIdx, &PageSlot)> {
        self.leaves_in(range).flat_map(|(leaf, first, slots)| occupied(leaf, first, slots))
    }

    /// The committed pages in `range`, in page order. Absent leaves and
    /// leaves without a committed page cost one load each.
    pub(crate) fn committed(&self, range: PageRange) -> impl Iterator<Item = PageIdx> + '_ {
        self.leaves_in(range)
            .filter(|(leaf, _, _)| leaf.committed > 0)
            .flat_map(|(leaf, first, slots)| occupied(leaf, first, slots))
            .filter_map(|(p, slot)| slot.is_committed().then_some(p))
    }

    /// The present leaves `range` overlaps, each with the page index of
    /// the first of the range's pages in it and their slot indices.
    fn leaves_in(&self, range: PageRange) -> impl Iterator<Item = (&Leaf, u64, Range<usize>)> {
        spans(range, self.dir.len()).filter_map(|(d, slots)| {
            let leaf = self.dir[d].as_deref()?;
            Some((leaf, ((d as u64) << LEAF_SHIFT) + slots.start as u64, slots))
        })
    }

    /// Every occupied slot, in page order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (PageIdx, &PageSlot)> {
        self.range(PageRange::new(PageIdx::new(0), self.limit))
    }

    /// Mutable access to every occupied slot whose page lies in `range`.
    pub(crate) fn for_each_mut_in(&mut self, range: PageRange, mut f: impl FnMut(&mut PageSlot)) {
        for (d, slots) in spans(range, self.dir.len()) {
            if let Some(leaf) = self.dir[d].as_deref_mut() {
                leaf.slots[slots].iter_mut().flatten().for_each(&mut f);
            }
        }
    }
}

/// The occupied slots among `leaf`'s `slots`, the first being page `first`.
fn occupied(
    leaf: &Leaf,
    first: u64,
    slots: Range<usize>,
) -> impl Iterator<Item = (PageIdx, &PageSlot)> {
    let pages = first..;
    leaf.slots[slots]
        .iter()
        .zip(pages)
        .filter_map(|(slot, p)| Some((PageIdx::new(p), slot.as_ref()?)))
}

/// The directory entries below `dir_len` that `range` overlaps, each with
/// the slot indices of the range's pages inside that leaf.
fn spans(range: PageRange, dir_len: usize) -> impl Iterator<Item = (usize, Range<usize>)> {
    let start = range.start().raw();
    let end = range.end().raw().min(dir_len as u64 * LEAF_PAGES);
    let leaves = if start < end { start >> LEAF_SHIFT..end.div_ceil(LEAF_PAGES) } else { 0..0 };
    leaves.map(move |d| {
        let base = d << LEAF_SHIFT;
        let (lo, hi) = (start.max(base) - base, end.min(base + LEAF_PAGES) - base);
        (d as usize, lo as usize..hi as usize)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_walks_in_order_and_clips_to_the_range() {
        let mut t = PageTable::new(8 * LEAF_PAGES);
        let pages = [3, LEAF_PAGES - 1, LEAF_PAGES, 3 * LEAF_PAGES + 7, 5 * LEAF_PAGES];
        for &p in pages.iter().rev() {
            t.insert(p, PageSlot::new());
        }
        let all: Vec<u64> = t.iter().map(|(p, _)| p.raw()).collect();
        assert_eq!(all, pages);
        let mid: Vec<u64> = t
            .range(PageRange::new(PageIdx::new(4), 3 * LEAF_PAGES + 3))
            .map(|(p, _)| p.raw())
            .collect();
        assert_eq!(mid, [LEAF_PAGES - 1, LEAF_PAGES]);
        assert_eq!(t.range(PageRange::new(PageIdx::new(9 * LEAF_PAGES), 10)).count(), 0);
        let mut n = 0;
        t.for_each_mut_in(PageRange::new(PageIdx::new(LEAF_PAGES), 4 * LEAF_PAGES), |_| n += 1);
        assert_eq!(n, 2);
    }

    #[test]
    fn committed_walk_follows_the_per_leaf_counts() {
        let mut t = PageTable::new(8 * LEAF_PAGES);
        for p in 0..3 * LEAF_PAGES {
            t.insert(p, PageSlot::new());
        }
        let committed = |t: &PageTable| {
            t.committed(PageRange::new(PageIdx::new(0), 8 * LEAF_PAGES))
                .map(|p| p.raw())
                .collect::<Vec<_>>()
        };
        let counts =
            |t: &PageTable| t.dir.iter().flatten().map(|l| l.committed).collect::<Vec<_>>();
        assert!(committed(&t).is_empty());
        for p in [LEAF_PAGES - 1, LEAF_PAGES, 2 * LEAF_PAGES + 5] {
            assert_eq!(t.commit(p).map(|(_, fresh)| fresh), Some(true));
        }
        assert_eq!(t.commit(LEAF_PAGES).map(|(_, fresh)| fresh), Some(false), "idempotent");
        assert_eq!(counts(&t), [1, 1, 1]);
        assert_eq!(committed(&t), [LEAF_PAGES - 1, LEAF_PAGES, 2 * LEAF_PAGES + 5]);
        assert_eq!(t.decommit(LEAF_PAGES).map(|(_, was)| was), Some(true));
        assert_eq!(t.decommit(LEAF_PAGES).map(|(_, was)| was), Some(false));
        assert!(t.remove(2 * LEAF_PAGES + 5).is_some_and(|s| s.is_committed()));
        assert_eq!(counts(&t), [1, 0, 0]);
        assert_eq!(committed(&t), [LEAF_PAGES - 1]);
        assert!(t.commit(7 * LEAF_PAGES).is_none(), "unmapped");
    }
}
