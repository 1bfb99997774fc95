//! The benchmark's thin mutator and its use-after-free reuse oracle.
//!
//! The mutator keeps a pointer graph in simulated memory: each new object
//! gets `ptr_density` pointer slots per 64 bytes aimed at random live
//! objects, and one rotating root slot on the stack. When an object is
//! freed, every slot pointing at it is erased, except that each one is
//! left dangling with the profile's `dangling_rate`. Its decisions depend
//! only on its seed and the op stream, never on the addresses the
//! allocator returns, so both replay columns see the same program.

use std::collections::{BTreeMap, HashMap};

use vmem::{Addr, AddrSpace, Segment, PAGE_SIZE, WORD_SIZE};
use workloads::{Profile, Rng};

use crate::spans::{Name, Spans};

/// A live object.
#[derive(Debug)]
struct Obj {
    base: Addr,
    size: u64,
    site: u32,
    /// Pointer slots inside this object: (slot address, target id).
    out: Vec<(Addr, u64)>,
}

/// Where a pointer to an object is stored.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Holder {
    Root(u32),
    Obj(u64),
}

/// The use-after-free reuse oracle. Each free that leaves dangling
/// pointers records the freed range and the slots still pointing into
/// it. The first allocation that overlaps a recorded range evaluates it:
/// every slot that still holds a pointer into the range is a reuse
/// (memory handed out again while a dangling pointer to it exists).
#[derive(Debug, Default)]
pub struct Oracle {
    /// Freed range base → (range end, dangling slot addresses).
    by_base: BTreeMap<u64, (u64, Vec<u64>)>,
    /// Dangling slot → the freed range base it was recorded under.
    by_slot: HashMap<u64, u64>,
    /// Slots found still pointing into reallocated memory.
    pub reuses: u64,
    /// Recorded ranges evaluated by an overlapping allocation.
    pub checks: u64,
}

impl Oracle {
    fn record(&mut self, base: Addr, size: u64, slot: Addr) {
        let e = self
            .by_base
            .entry(base.raw())
            .or_insert((base.raw() + size, Vec::new()));
        e.1.push(slot.raw());
        self.by_slot.insert(slot.raw(), base.raw());
    }

    /// The slot stopped holding program data (its holder died or the
    /// root was recycled): it can no longer be a dangling pointer.
    fn forget(&mut self, slot: Addr) {
        let Some(base) = self.by_slot.remove(&slot.raw()) else {
            return;
        };
        if let Some(e) = self.by_base.get_mut(&base) {
            e.1.retain(|&s| s != slot.raw());
            if e.1.is_empty() {
                self.by_base.remove(&base);
            }
        }
    }

    /// Evaluates every recorded range that `[base, base + size)` overlaps.
    fn on_malloc(&mut self, space: &AddrSpace, base: Addr, size: u64) {
        let (lo, hi) = (base.raw(), base.raw() + size.max(1));
        let hits: Vec<u64> = self
            .by_base
            .range(..hi)
            .rev()
            .take_while(|(_, (end, _))| *end > lo)
            .map(|(&b, _)| b)
            .collect();
        for b in hits {
            let (end, slots) = self.by_base.remove(&b).expect("just found");
            self.checks += 1;
            for slot in slots {
                self.by_slot.remove(&slot);
                let v = space.peek_word(Addr::new(slot)).unwrap_or(0);
                if (b..end).contains(&v) {
                    self.reuses += 1;
                }
            }
        }
    }
}

/// One program's pointer graph over one address space.
#[derive(Debug)]
pub struct Mutator {
    rng: Rng,
    ptr_density: f64,
    dangling_rate: f64,
    /// Indexed by trace id (dense from 0); `None` once freed.
    objs: Vec<Option<Obj>>,
    live: Vec<u64>,
    /// Indexed by trace id: position in `live`.
    live_pos: Vec<usize>,
    /// Indexed by trace id: the slots pointing at the object; `None`
    /// once the object is freed.
    incoming: Vec<Option<Vec<(Holder, Addr)>>>,
    roots: Vec<Option<u64>>,
    stack: Addr,
    pub oracle: Oracle,
    /// `write_word` calls made.
    pub stores: u64,
}

impl Mutator {
    pub fn new(profile: &Profile, seed: u64) -> Self {
        Mutator {
            rng: Rng::new(seed ^ 0x6d75_7461),
            ptr_density: profile.ptr_density,
            dangling_rate: profile.dangling_rate,
            objs: Vec::new(),
            live: Vec::new(),
            live_pos: Vec::new(),
            incoming: Vec::new(),
            roots: vec![None; profile.root_slots.max(1) as usize],
            stack: vmem::Layout::default().segment_base(Segment::Stack),
            oracle: Oracle::default(),
            stores: 0,
        }
    }

    fn store(&mut self, space: &mut AddrSpace, spans: &mut Spans, at: Addr, value: u64) {
        self.stores += 1;
        spans
            .span(Name::VmemStore, || space.write_word(at, value))
            .expect("the mutator only writes live objects and the stack");
    }

    /// The program initialises object `id`, just returned at `base`:
    /// touches each of its pages, wires its pointer slots and roots it.
    pub fn on_alloc(
        &mut self,
        space: &mut AddrSpace,
        spans: &mut Spans,
        id: u64,
        size: u64,
        site: u32,
        base: Addr,
    ) {
        self.oracle.on_malloc(space, base, size);
        let idx = id as usize;
        if self.objs.len() <= idx {
            self.objs.resize_with(idx + 1, || None);
            self.live_pos.resize(idx + 1, 0);
            self.incoming.resize_with(idx + 1, || None);
        }
        self.incoming[idx] = Some(Vec::new());
        let words = (size / WORD_SIZE as u64).max(1);
        let mut page = base;
        while page < base.add_bytes(size) {
            let junk = self.rng.next_u64() & 0x0fff_ffff;
            self.store(space, spans, page, junk | 1);
            page = page
                .align_down(PAGE_SIZE as u64)
                .add_bytes(PAGE_SIZE as u64);
        }
        let want = self.ptr_density * size as f64 / 64.0;
        let mut k = want as u64;
        if self.rng.chance(want.fract()) {
            k += 1;
        }
        let k = k.min(words);
        let mut out = Vec::with_capacity(k as usize);
        for i in 0..k {
            let Some(target) = self.pick() else { break };
            let t = self.objs[target as usize]
                .as_ref()
                .expect("picked from the live list");
            let interior = if self.rng.chance(0.2) && t.size > 16 {
                self.rng.below(t.size / 8) * 8
            } else {
                0
            };
            let value = t.base.raw() + interior;
            // Evenly spread, distinct slots: one object never stores two
            // pointers in the same word.
            let slot = base.add_bytes(i * words / k * WORD_SIZE as u64);
            self.store(space, spans, slot, value);
            out.push((slot, target));
            self.incoming[target as usize]
                .as_mut()
                .expect("live")
                .push((Holder::Obj(id), slot));
        }
        let r = (id % self.roots.len() as u64) as u32;
        let slot = self.root_addr(r);
        if let Some(old) = self.roots[r as usize].take() {
            match self.incoming[old as usize].as_mut() {
                Some(list) => list.retain(|&(h, _)| h != Holder::Root(r)),
                // The old owner died leaving this root dangling.
                None => self.oracle.forget(slot),
            }
        }
        self.store(space, spans, slot, base.raw());
        self.roots[r as usize] = Some(id);
        self.incoming[idx]
            .as_mut()
            .expect("just created")
            .push((Holder::Root(r), slot));
        self.objs[idx] = Some(Obj {
            base,
            size,
            site,
            out,
        });
        self.live_pos[idx] = self.live.len();
        self.live.push(id);
    }

    /// The program drops object `id`: erases the pointers to it (leaving
    /// some dangling) and returns `(base, site)` for the allocator's free.
    pub fn on_free(&mut self, space: &mut AddrSpace, spans: &mut Spans, id: u64) -> (Addr, u32) {
        let obj = self.objs[id as usize]
            .take()
            .expect("the trace frees live ids once");
        for (holder, slot) in self.incoming[id as usize].take().expect("live") {
            if self.rng.chance(self.dangling_rate) {
                self.oracle.record(obj.base, obj.size, slot);
                continue;
            }
            self.store(space, spans, slot, 0);
            match holder {
                Holder::Root(r) => self.roots[r as usize] = None,
                Holder::Obj(h) => {
                    if let Some(h) = self.objs[h as usize].as_mut() {
                        h.out.retain(|&(s, _)| s != slot);
                    }
                }
            }
        }
        // The dying object's own slots stop being program pointers.
        for &(slot, target) in &obj.out {
            match self.incoming[target as usize].as_mut() {
                Some(list) => list.retain(|&(h, s)| !(h == Holder::Obj(id) && s == slot)),
                None => self.oracle.forget(slot),
            }
        }
        let pos = self.live_pos[id as usize];
        let last = self.live.pop().expect("non-empty");
        if last != id {
            self.live[pos] = last;
            self.live_pos[last as usize] = pos;
        }
        (obj.base, obj.site)
    }

    fn pick(&mut self) -> Option<u64> {
        if self.live.is_empty() {
            return None;
        }
        Some(self.live[self.rng.below(self.live.len() as u64) as usize])
    }

    fn root_addr(&self, r: u32) -> Addr {
        self.stack.add_bytes(u64::from(r) * WORD_SIZE as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_counts_only_slots_still_pointing_into_reused_memory() {
        let mut space = AddrSpace::new();
        let base = space.reserve_heap(1);
        space.map(base, 1).expect("fresh heap page");
        let (a, b, c) = (
            base.add_bytes(512),
            base.add_bytes(520),
            base.add_bytes(528),
        );
        let freed = base.add_bytes(64);
        let mut o = Oracle::default();
        for slot in [a, b, c] {
            space.write_word(slot, freed.raw() + 8).expect("mapped");
            o.record(freed, 64, slot);
        }
        // One slot is overwritten, one stops being program data.
        space.write_word(b, 0).expect("mapped");
        o.forget(c);
        // A disjoint allocation evaluates nothing.
        o.on_malloc(&space, base.add_bytes(256), 64);
        assert_eq!((o.checks, o.reuses), (0, 0));
        // An overlapping one evaluates the range once: only `a` still points in.
        o.on_malloc(&space, base.add_bytes(96), 16);
        assert_eq!((o.checks, o.reuses), (1, 1));
        o.on_malloc(&space, freed, 64);
        assert_eq!((o.checks, o.reuses), (1, 1), "a range is evaluated once");
    }
}
