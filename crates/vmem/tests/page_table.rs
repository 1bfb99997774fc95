//! Differential test of the address space's page table against a
//! `BTreeMap` reference model.
//!
//! Random sequences of every page-state operation run on both, over pages
//! on either side of 512-page leaf boundaries (index ≡ 511 / 0 mod 512) in
//! all three segments. After every operation each observable query must
//! agree: per-page state, word contents, the soft-dirty views and the
//! RSS/mapping totals.

use std::collections::BTreeMap;

use proptest::prelude::*;
use vmem::{
    Addr, AddrSpace, Layout, MemError, PageIdx, PageRange, Protection, Segment, PAGE_SIZE,
    WORD_SIZE,
};

const LEAF: u64 = 512;
/// Word offsets the operations touch: both ends of a page and one inside.
const WORDS: [u64; 3] = [0, 1, 511];

/// Pages the operations target: each segment's first page and the pages
/// around its first interior leaf boundary, plus the last two pages of
/// globals and stack and the heap's second leaf boundary.
fn candidates() -> Vec<u64> {
    let l = Layout::default();
    let mut pages = Vec::new();
    for seg in [Segment::Globals, Segment::Stack, Segment::Heap] {
        let r = l.segment_range(seg);
        let (s, e) = (r.start().raw(), r.end().raw());
        assert_eq!(s % LEAF, 0, "segments start on a leaf boundary");
        pages.extend([s, s + LEAF - 2, s + LEAF - 1, s + LEAF, s + LEAF + 1]);
        if seg == Segment::Heap {
            pages.extend([s + 2 * LEAF - 1, s + 2 * LEAF]);
        } else {
            pages.extend([e - 2, e - 1]);
        }
    }
    pages
}

#[derive(Clone, Debug)]
enum Op {
    Map { page: usize, count: u64 },
    Unmap { page: usize, count: u64 },
    Commit { page: usize, count: u64 },
    Decommit { page: usize, count: u64 },
    Protect { page: usize, count: u64, none: bool },
    MapAlias { page: usize, frame: usize },
    Write { page: usize, word: usize, value: u64 },
    Read { page: usize, word: usize },
    FillZero { page: usize, word: usize, words: u64 },
    ClearRange { page: usize, count: u64 },
    ClearAll,
}

fn op_strategy(n: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => (0..n, 1u64..4).prop_map(|(page, count)| Op::Map { page, count }),
        2 => (0..n, 1u64..4).prop_map(|(page, count)| Op::Unmap { page, count }),
        2 => (0..n, 1u64..4).prop_map(|(page, count)| Op::Commit { page, count }),
        2 => (0..n, 1u64..4).prop_map(|(page, count)| Op::Decommit { page, count }),
        2 => (0..n, 1u64..4, any::<bool>())
            .prop_map(|(page, count, none)| Op::Protect { page, count, none }),
        1 => (0..n, 0..n).prop_map(|(page, frame)| Op::MapAlias { page, frame }),
        4 => (0..n, 0..WORDS.len(), 1u64..u64::MAX)
            .prop_map(|(page, word, value)| Op::Write { page, word, value }),
        2 => (0..n, 0..WORDS.len()).prop_map(|(page, word)| Op::Read { page, word }),
        2 => (0..n, 0..WORDS.len(), 0u64..1100)
            .prop_map(|(page, word, words)| Op::FillZero { page, word, words }),
        1 => (0..n, 1u64..4).prop_map(|(page, count)| Op::ClearRange { page, count }),
        1 => Just(Op::ClearAll),
    ]
}

/// One model page; `words` holds the non-zero words of a committed page.
#[derive(Clone, Debug)]
struct MPage {
    words: Option<BTreeMap<u64, u64>>,
    prot: Protection,
    dirty: bool,
    alias_of: Option<u64>,
}

/// A freshly mapped page: uncommitted, read-write, clean.
static FRESH: MPage =
    MPage { words: None, prot: Protection::ReadWrite, dirty: false, alias_of: None };

impl MPage {
    /// Commits if unbacked; a fresh commit is born soft-dirty.
    fn commit(&mut self) {
        if self.words.is_none() {
            self.words = Some(BTreeMap::new());
            self.dirty = true;
        }
    }
}

fn base(page: u64) -> Addr {
    PageIdx::new(page).base()
}

/// The reference model: the documented semantics of every operation over
/// an ordered map of pages.
///
/// The globals and stack segments start out mapped. So that a step costs
/// the model only the pages it touched, their untouched pages are implicit
/// [`FRESH`] pages: `changed` records every page whose state differs from
/// that default, with `None` for an unmapped page.
struct Model {
    changed: BTreeMap<u64, Option<MPage>>,
    roots: [PageRange; 2],
}

impl Model {
    fn new() -> Self {
        let l = Layout::default();
        let roots = [l.segment_range(Segment::Globals), l.segment_range(Segment::Stack)];
        Model { changed: BTreeMap::new(), roots }
    }

    fn in_roots(&self, page: u64) -> bool {
        self.roots.iter().any(|r| (r.start().raw()..r.end().raw()).contains(&page))
    }

    fn get(&self, page: u64) -> Option<&MPage> {
        match self.changed.get(&page) {
            Some(slot) => slot.as_ref(),
            None => self.in_roots(page).then_some(&FRESH),
        }
    }

    fn get_mut(&mut self, page: u64) -> Option<&mut MPage> {
        if !self.changed.contains_key(&page) && self.in_roots(page) {
            self.changed.insert(page, Some(FRESH.clone()));
        }
        self.changed.get_mut(&page)?.as_mut()
    }

    /// Every mapped page not in the implicit fresh state, in page order.
    /// Fresh pages are neither committed nor dirty, so this is all the
    /// soft-dirty and RSS views need.
    fn touched(&self) -> impl Iterator<Item = (u64, &MPage)> {
        self.changed.iter().filter_map(|(&p, s)| Some((p, s.as_ref()?)))
    }

    fn mapped_pages(&self) -> u64 {
        let implicit: u64 = self.roots.iter().map(|r| r.page_count()).sum();
        let overridden = self.changed.keys().filter(|&&p| self.in_roots(p)).count() as u64;
        implicit - overridden + self.touched().count() as u64
    }

    fn find_page(&self, start: u64, count: u64, mapped: bool) -> Option<u64> {
        (start..start + count).find(|&p| self.get(p).is_some() == mapped)
    }

    fn map(&mut self, start: u64, count: u64) -> Result<(), MemError> {
        if let Some(p) = self.find_page(start, count, true) {
            return Err(MemError::AlreadyMapped(base(p)));
        }
        for p in start..start + count {
            self.changed.insert(p, Some(FRESH.clone()));
        }
        Ok(())
    }

    fn unmap(&mut self, start: u64, count: u64) -> Result<(), MemError> {
        if let Some(p) = self.find_page(start, count, false) {
            return Err(MemError::Unmapped(base(p)));
        }
        for p in start..start + count {
            self.changed.insert(p, None);
        }
        Ok(())
    }

    /// Applies `f` page by page, stopping at the first unmapped page.
    fn each(&mut self, start: u64, count: u64, f: impl Fn(&mut MPage)) -> Result<(), MemError> {
        for p in start..start + count {
            f(self.get_mut(p).ok_or(MemError::Unmapped(base(p)))?);
        }
        Ok(())
    }

    fn protect(&mut self, start: u64, count: u64, prot: Protection) -> Result<(), MemError> {
        if let Some(p) = self.find_page(start, count, false) {
            return Err(MemError::Unmapped(base(p)));
        }
        self.each(start, count, |s| {
            s.dirty |= s.prot != prot;
            s.prot = prot;
        })
    }

    fn map_alias(&mut self, va: u64, frame: u64) -> Result<(), MemError> {
        if self.get(va).is_some() {
            return Err(MemError::AlreadyMapped(base(va)));
        }
        match self.get(frame) {
            Some(f) if f.alias_of.is_none() => {
                self.changed.insert(va, Some(MPage { alias_of: Some(frame), ..FRESH.clone() }));
                Ok(())
            }
            _ => Err(MemError::Unmapped(base(frame))),
        }
    }

    /// The storage page behind `addr`'s page, honouring protection and
    /// one level of aliasing.
    fn resolve(&self, addr: Addr) -> Result<u64, MemError> {
        let page = addr.page().raw();
        let s = self.get(page).ok_or(MemError::Unmapped(addr))?;
        if s.prot == Protection::None {
            return Err(MemError::Protected(addr));
        }
        match s.alias_of {
            None => Ok(page),
            Some(f) if self.get(f).is_some() => Ok(f),
            Some(_) => Err(MemError::Unmapped(addr)),
        }
    }

    /// The page whose storage `addr` reaches, demand-committed.
    fn backing(&mut self, addr: Addr) -> Result<&mut MPage, MemError> {
        let s = self.get_mut(self.resolve(addr)?).expect("resolved");
        s.commit();
        Ok(s)
    }

    fn read(&mut self, addr: Addr) -> Result<u64, MemError> {
        let words = self.backing(addr)?.words.as_ref().expect("committed");
        Ok(words.get(&(addr.word_in_page() as u64)).copied().unwrap_or(0))
    }

    fn write(&mut self, addr: Addr, value: u64) -> Result<(), MemError> {
        let s = self.backing(addr)?;
        s.words.as_mut().expect("committed").insert(addr.word_in_page() as u64, value);
        s.dirty = true;
        Ok(())
    }

    fn peek(&self, addr: Addr) -> Result<u64, MemError> {
        let s = self.get(self.resolve(addr)?).expect("resolved");
        let word = addr.word_in_page() as u64;
        Ok(s.words.as_ref().and_then(|w| w.get(&word).copied()).unwrap_or(0))
    }

    fn fill_zero(&mut self, addr: Addr, len: u64) -> Result<(), MemError> {
        let end = addr.raw() + len;
        let mut cur = addr;
        while cur.raw() < end {
            let chunk_end = cur.page().next().base().raw().min(end);
            let s = self.get_mut(self.resolve(cur)?).expect("resolved");
            if let Some(words) = s.words.as_mut() {
                let w0 = cur.word_in_page() as u64;
                let w1 = w0 + (chunk_end - cur.raw()) / WORD_SIZE as u64;
                words.retain(|w, _| !(w0..w1).contains(w));
                s.dirty = true;
            }
            cur = Addr::new(chunk_end);
        }
        Ok(())
    }

    fn clear_soft_dirty(&mut self, range: PageRange) {
        for (_, s) in self.changed.range_mut(range.start().raw()..range.end().raw()) {
            if let Some(s) = s {
                s.dirty = false;
            }
        }
    }
}

/// Every observable query on `space` agrees with `model`.
fn check(space: &AddrSpace, model: &Model, cands: &[u64]) -> Result<(), TestCaseError> {
    for p in cands.iter().flat_map(|&c| [c - 1, c, c + 1]) {
        let (a, m) = (base(p), model.get(p));
        prop_assert_eq!(space.is_mapped(a), m.is_some(), "is_mapped {:#x}", p);
        let committed = m.is_some_and(|s| s.words.is_some());
        prop_assert_eq!(space.is_committed(a), committed, "is_committed {:#x}", p);
        prop_assert_eq!(space.protection(a), m.map(|s| s.prot), "protection {:#x}", p);
        let dirty = m.is_some_and(|s| s.dirty);
        prop_assert_eq!(space.is_soft_dirty(a), dirty, "is_soft_dirty {:#x}", p);
        for w in WORDS {
            let wa = a + w * WORD_SIZE as u64;
            prop_assert_eq!(space.peek_word(wa), model.peek(wa), "peek_word {}", wa);
        }
    }
    let dirty: Vec<PageIdx> = model
        .touched()
        .filter(|(_, s)| s.dirty && s.words.is_some())
        .map(|(p, _)| PageIdx::new(p))
        .collect();
    prop_assert_eq!(space.soft_dirty_pages(), dirty);

    let heap = Layout::default().segment_range(Segment::Heap);
    let windows = cands.iter().map(|&c| PageRange::new(PageIdx::new(c - 3), 6));
    for r in windows.chain([PageRange::new(heap.start(), 2 * LEAF + 4)]) {
        let snap: Vec<PageIdx> = r
            .iter()
            .filter(|p| {
                !model.get(p.raw()).is_some_and(|s| {
                    s.words.is_some()
                        && s.prot == Protection::ReadWrite
                        && s.alias_of.is_none()
                        && !s.dirty
                })
            })
            .collect();
        prop_assert_eq!(space.snapshot_soft_dirty(r), snap, "snapshot_soft_dirty {:?}", r);
    }
    for r in model.roots.into_iter().chain([heap]) {
        let committed = model
            .touched()
            .filter(|&(p, s)| s.words.is_some() && (r.start().raw()..r.end().raw()).contains(&p))
            .count() as u64;
        prop_assert_eq!(space.committed_pages_in(r), committed, "committed_pages_in {:?}", r);
    }
    let committed = model.touched().filter(|(_, s)| s.words.is_some()).count() as u64;
    prop_assert_eq!(space.rss_bytes(), committed * PAGE_SIZE as u64);
    prop_assert_eq!(space.mapped_bytes(), model.mapped_pages() * PAGE_SIZE as u64);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn page_table_matches_btreemap_model(ops in proptest::collection::vec(op_strategy(21), 1..60)) {
        let cands = candidates();
        prop_assert_eq!(cands.len(), 21);
        let mut space = AddrSpace::new();
        let mut model = Model::new();
        check(&space, &model, &cands)?;
        for op in ops {
            match op {
                Op::Map { page, count } => {
                    let p = cands[page];
                    prop_assert_eq!(space.map(base(p), count), model.map(p, count));
                }
                Op::Unmap { page, count } => {
                    let p = cands[page];
                    let r = PageRange::new(PageIdx::new(p), count);
                    prop_assert_eq!(space.unmap(r), model.unmap(p, count));
                }
                Op::Commit { page, count } => {
                    let p = cands[page];
                    let r = PageRange::new(PageIdx::new(p), count);
                    prop_assert_eq!(space.commit(r), model.each(p, count, MPage::commit));
                }
                Op::Decommit { page, count } => {
                    let p = cands[page];
                    let r = PageRange::new(PageIdx::new(p), count);
                    let expect = model.each(p, count, |s| {
                        if s.words.take().is_some() {
                            s.dirty = true;
                        }
                    });
                    prop_assert_eq!(space.decommit(r), expect);
                }
                Op::Protect { page, count, none } => {
                    let p = cands[page];
                    let prot = if none { Protection::None } else { Protection::ReadWrite };
                    let r = PageRange::new(PageIdx::new(p), count);
                    prop_assert_eq!(space.protect(r, prot), model.protect(p, count, prot));
                }
                Op::MapAlias { page, frame } => {
                    let (va, f) = (cands[page], cands[frame]);
                    let got = space.map_alias(base(va), PageIdx::new(f));
                    prop_assert_eq!(got, model.map_alias(va, f));
                }
                Op::Write { page, word, value } => {
                    let a = base(cands[page]) + WORDS[word] * WORD_SIZE as u64;
                    prop_assert_eq!(space.write_word(a, value), model.write(a, value));
                }
                Op::Read { page, word } => {
                    let a = base(cands[page]) + WORDS[word] * WORD_SIZE as u64;
                    prop_assert_eq!(space.read_word(a), model.read(a));
                }
                Op::FillZero { page, word, words } => {
                    let a = base(cands[page]) + WORDS[word] * WORD_SIZE as u64;
                    let len = words * WORD_SIZE as u64;
                    prop_assert_eq!(space.fill_zero(a, len), model.fill_zero(a, len));
                }
                Op::ClearRange { page, count } => {
                    let r = PageRange::new(PageIdx::new(cands[page]), count);
                    space.clear_soft_dirty_range(r);
                    model.clear_soft_dirty(r);
                }
                Op::ClearAll => {
                    space.clear_soft_dirty();
                    model.clear_soft_dirty(PageRange::new(PageIdx::new(0), u64::MAX));
                }
            }
            check(&space, &model, &cands)?;
        }
    }
}
