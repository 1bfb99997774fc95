//! Fixed address-space layout: globals, stack and heap segments.
//!
//! The sweep must examine "heap, stack and globals" (§4.4). The simulation
//! gives each a fixed, widely separated segment so that an integer that
//! happens to fall inside the heap segment is a *false pointer* (Figure 4)
//! while ordinary small integers are not — matching the paper's observation
//! that the sparsity of the 64-bit address space limits false retention.

use crate::{Addr, PageRange, PAGE_SIZE};

/// Named region of the simulated address space.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Segment {
    /// Program globals (`.data`/`.bss`), swept as roots.
    Globals,
    /// The mutator stack, swept as roots.
    Stack,
    /// The managed heap; allocators carve extents out of this segment.
    Heap,
}

/// The address-space layout used throughout the workspace.
///
/// # Example
///
/// ```
/// use vmem::{Layout, Segment};
/// let layout = Layout::default();
/// assert!(layout.heap_contains(layout.segment_base(Segment::Heap)));
/// assert!(!layout.heap_contains(layout.segment_base(Segment::Stack)));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Layout {
    globals_base: Addr,
    globals_pages: u64,
    stack_base: Addr,
    stack_pages: u64,
    heap_base: Addr,
    heap_pages: u64,
}

impl Layout {
    /// Globals at 256 MiB, stack just below 2 GiB, heap from 4 GiB with a
    /// 1 TiB reservation — mirroring a typical x86-64 process image.
    pub fn new() -> Self {
        Layout {
            globals_base: Addr::new(0x1000_0000),
            globals_pages: 16 * 1024, // 64 MiB
            stack_base: Addr::new(0x7000_0000),
            stack_pages: 2 * 1024, // 8 MiB
            heap_base: Addr::new(0x1_0000_0000),
            heap_pages: (1u64 << 40) / PAGE_SIZE as u64,
        }
    }

    /// Base address of a segment.
    pub fn segment_base(&self, seg: Segment) -> Addr {
        match seg {
            Segment::Globals => self.globals_base,
            Segment::Stack => self.stack_base,
            Segment::Heap => self.heap_base,
        }
    }

    /// Size of a segment in pages.
    pub fn segment_pages(&self, seg: Segment) -> u64 {
        match seg {
            Segment::Globals => self.globals_pages,
            Segment::Stack => self.stack_pages,
            Segment::Heap => self.heap_pages,
        }
    }

    /// The pages of a segment.
    pub fn segment_range(&self, seg: Segment) -> PageRange {
        PageRange::new(self.segment_base(seg).page(), self.segment_pages(seg))
    }

    /// One past the last address of a segment.
    pub fn segment_end(&self, seg: Segment) -> Addr {
        self.segment_base(seg).add_bytes(self.segment_pages(seg) * PAGE_SIZE as u64)
    }

    /// The segment containing `addr`, if any.
    pub fn segment_of(&self, addr: Addr) -> Option<Segment> {
        [Segment::Globals, Segment::Stack, Segment::Heap].into_iter().find(|&seg| addr >= self.segment_base(seg) && addr < self.segment_end(seg))
    }

    /// `true` if `addr` falls inside the heap segment. This is the fast
    /// range check the sweep applies to every word before touching the
    /// shadow map (§3.2: only words that could point at quarantined heap
    /// memory matter).
    #[inline]
    pub fn heap_contains(&self, addr: Addr) -> bool {
        addr >= self.heap_base && addr < self.segment_end(Segment::Heap)
    }
}

impl Default for Layout {
    fn default() -> Self {
        Layout::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_do_not_overlap() {
        let l = Layout::new();
        let segs = [Segment::Globals, Segment::Stack, Segment::Heap];
        for (i, &a) in segs.iter().enumerate() {
            for &b in &segs[i + 1..] {
                let (a0, a1) = (l.segment_base(a).raw(), l.segment_end(a).raw());
                let (b0, b1) = (l.segment_base(b).raw(), l.segment_end(b).raw());
                assert!(a1 <= b0 || b1 <= a0, "{a:?} overlaps {b:?}");
            }
        }
    }

    #[test]
    fn segment_of_classifies_boundaries() {
        let l = Layout::new();
        assert_eq!(l.segment_of(l.segment_base(Segment::Heap)), Some(Segment::Heap));
        let last = l.segment_end(Segment::Heap).raw() - 1;
        assert_eq!(l.segment_of(Addr::new(last)), Some(Segment::Heap));
        assert_eq!(l.segment_of(l.segment_end(Segment::Heap)), None);
        assert_eq!(l.segment_of(Addr::new(0x100)), None, "low memory is unmapped");
    }

    #[test]
    fn small_integers_are_not_heap_pointers() {
        // Sparsity argument from §3.3: ordinary data rarely aliases the heap.
        let l = Layout::new();
        for x in [0u64, 1, 42, 1 << 20, 0xffff_ffff] {
            assert!(!l.heap_contains(Addr::new(x)), "{x:#x} misclassified");
        }
    }
}
