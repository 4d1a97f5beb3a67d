//! Dense per-flow tables.
//!
//! Flow ids are allocated sequentially from zero, so the simulator's
//! flow states sit in a slab indexed by `FlowId` ([`FlowMap`]) instead
//! of an ordered map: O(1) lookup, no pointer chasing, and iteration
//! stays in id order (which the artifact exporters rely on). When flow
//! retirement is enabled ([`crate::retire`]) completed ids are
//! recycled, so the slab's length is bounded by peak concurrency while
//! the per-slot generations keep stale references detectable.
//!
//! A flow's endpoints live in a second table, a `Slab` that hands out
//! and reuses its own `u32` indices: an endpoint record is freed as soon
//! as nothing can reach it (see `SimCore::free_if_unreachable`), so that
//! table tracks the live flows, not every flow ever started.

use std::ops::{Index, IndexMut};

use crate::packet::FlowId;
use crate::segmented::Segmented;

/// A slab keyed by [`FlowId`] with O(1) access and id-ordered
/// iteration. Its length is the largest id it ever held, so it suits
/// tables with an entry for (nearly) every flow, like the simulator's
/// flow states. A table holding a sparse subset — say, one host's flows
/// — still pays a slot for every id up to the largest it saw.
///
/// The slots sit in never-moving segments, so growing the table never
/// copies or frees the states it holds. Ids at or past `u32::MAX - 63`
/// do not fit and panic on insert.
#[derive(Debug)]
pub struct FlowMap<T> {
    slots: Segmented<Option<T>>,
    /// Per-slot generation, bumped every time an entry is removed. A
    /// stale actor holding a flow id across teardown and re-insert can
    /// compare generations to tell the new occupant from the state it
    /// remembers — dead state is never resurrected by id reuse.
    gens: Segmented<u32>,
    len: usize,
    /// High-water mark of `len`: the peak number of simultaneously live
    /// entries this table ever held. With id recycling the slab length
    /// is bounded by peak concurrency, not total churn, and this is the
    /// number that proves it.
    peak_len: usize,
}

impl<T> Default for FlowMap<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// The slot index of `id`, or `None` if it cannot name a slot.
fn slot(id: FlowId) -> Option<u32> {
    u32::try_from(id.0).ok()
}

impl<T> FlowMap<T> {
    /// Creates an empty table.
    pub fn new() -> Self {
        FlowMap {
            slots: Segmented::new("flow table"),
            gens: Segmented::new("flow generations"),
            len: 0,
            peak_len: 0,
        }
    }

    /// Number of slots the slab has ever materialised (live + holes).
    /// Under id recycling this is the resident-memory proxy: it tracks
    /// peak concurrency, not cumulative flow count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Peak number of simultaneously live entries (see `capacity`).
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Shared access to the entry for `id`.
    pub fn get(&self, id: FlowId) -> Option<&T> {
        self.slots.get(slot(id)?)?.as_ref()
    }

    /// Mutable access to the entry for `id`.
    pub fn get_mut(&mut self, id: FlowId) -> Option<&mut T> {
        self.slots.get_mut(slot(id)?)?.as_mut()
    }

    /// Whether `id` has an entry.
    pub fn contains(&self, id: FlowId) -> bool {
        self.get(id).is_some()
    }

    /// Inserts a value for `id`, growing the slab as needed. Returns
    /// the previous value, if any.
    ///
    /// # Panics
    ///
    /// Panics if `id` is at or past `u32::MAX - 63`.
    pub fn insert(&mut self, id: FlowId, value: T) -> Option<T> {
        let idx = slot(id).expect("flow id exceeds the flow table");
        while self.slots.len() <= idx as usize {
            self.slots.push(None);
            self.gens.push(0);
        }
        let old = self.slots[idx].replace(value);
        if old.is_none() {
            self.len += 1;
            self.peak_len = self.peak_len.max(self.len);
        }
        old
    }

    /// Removes and returns the entry for `id`, if any. Removal bumps the
    /// slot's generation (see [`generation`](Self::generation)).
    pub fn remove(&mut self, id: FlowId) -> Option<T> {
        let idx = slot(id)?;
        let old = self.slots.get_mut(idx).and_then(Option::take);
        if old.is_some() {
            self.gens[idx] = self.gens[idx].wrapping_add(1);
            self.len -= 1;
        }
        old
    }

    /// Generation of `id`'s slot: 0 until the first removal, then +1 per
    /// removal. A `(FlowId, generation)` pair uniquely names one
    /// occupancy of the slot, so state captured before a teardown can be
    /// recognised as stale after the id is reused.
    pub fn generation(&self, id: FlowId) -> u32 {
        slot(id)
            .and_then(|i| self.gens.get(i))
            .copied()
            .unwrap_or(0)
    }

    /// Iterates entries in flow-id order.
    pub fn iter(&self) -> impl Iterator<Item = (FlowId, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_ref().map(|v| (FlowId(i as u64), v)))
    }

    /// Iterates entries mutably in flow-id order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (FlowId, &mut T)> {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, v)| v.as_mut().map(|v| (FlowId(i as u64), v)))
    }
}

/// A table that hands out `u32` indices and reuses freed ones, most
/// recently freed first. Its capacity is the peak number of entries
/// live at once; the slots sit in never-moving segments.
#[derive(Debug)]
pub(crate) struct Slab<T> {
    slots: Segmented<Option<T>>,
    /// Indices of the empty slots, reused last in, first out.
    free: Vec<u32>,
}

impl<T> Slab<T> {
    /// An empty slab; `name` names it in panic messages.
    pub(crate) fn new(name: &'static str) -> Self {
        Self {
            slots: Segmented::new(name),
            free: Vec::new(),
        }
    }

    /// Slots ever materialised: the peak number of live entries.
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Stores `value` in a free slot, or a new one, and returns its
    /// index.
    pub(crate) fn insert(&mut self, value: T) -> u32 {
        match self.free.pop() {
            Some(i) => {
                self.slots[i] = Some(value);
                i
            }
            None => self.slots.push(Some(value)),
        }
    }

    /// Takes the entry at `i` out and frees its slot; `None` if the
    /// slot is empty or does not exist.
    pub(crate) fn remove(&mut self, i: u32) -> Option<T> {
        let old = self.slots.get_mut(i)?.take();
        if old.is_some() {
            self.free.push(i);
        }
        old
    }

    /// The entry at `i`, if it holds one.
    #[inline]
    pub(crate) fn get(&self, i: u32) -> Option<&T> {
        self.slots.get(i)?.as_ref()
    }

    /// The entry at `i` mutably, if it holds one.
    #[inline]
    pub(crate) fn get_mut(&mut self, i: u32) -> Option<&mut T> {
        self.slots.get_mut(i)?.as_mut()
    }
}

impl<T> Index<u32> for Slab<T> {
    type Output = T;

    /// # Panics
    ///
    /// Panics if slot `i` is empty or does not exist.
    #[inline]
    fn index(&self, i: u32) -> &T {
        self.slots[i].as_ref().expect("slab slot is free")
    }
}

impl<T> IndexMut<u32> for Slab<T> {
    #[inline]
    fn index_mut(&mut self, i: u32) -> &mut T {
        self.slots[i].as_mut().expect("slab slot is free")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m: FlowMap<u32> = FlowMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(FlowId(3), 30), None);
        assert_eq!(m.insert(FlowId(0), 0), None);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(FlowId(3)), Some(&30));
        assert_eq!(m.get(FlowId(1)), None, "hole in the slab");
        assert_eq!(m.get(FlowId(999)), None, "beyond the slab");
        assert_eq!(m.insert(FlowId(3), 31), Some(30), "replace keeps len");
        assert_eq!(m.len(), 2);
        assert_eq!(m.remove(FlowId(3)), Some(31));
        assert_eq!(m.remove(FlowId(3)), None);
        assert_eq!(m.remove(FlowId(999)), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn slot_reuse_keeps_generations_distinct() {
        // Grow, retire, and reinsert under the same flow id: each
        // occupancy gets its own generation, so a stale reference to a
        // dead flow can never be confused with the slot's new tenant.
        let mut m: FlowMap<&str> = FlowMap::new();
        let id = FlowId(4);
        assert_eq!(m.generation(id), 0, "untouched slot");
        m.insert(id, "first");
        assert_eq!(m.generation(id), 0, "insert does not bump");
        let before = m.generation(id);
        assert_eq!(m.remove(id), Some("first"));
        assert_eq!(m.generation(id), before + 1, "remove bumps");
        m.insert(id, "second");
        assert_eq!(m.generation(id), before + 1);
        assert_eq!(
            m.get(id),
            Some(&"second"),
            "reused slot holds the new state only"
        );
        assert_eq!(m.remove(id), Some("second"));
        assert_eq!(m.generation(id), before + 2, "one bump per occupancy");
        assert_eq!(m.get(id), None, "dead state is not resurrected");
    }

    #[test]
    fn generation_survives_failed_removes_and_growth() {
        let mut m: FlowMap<u8> = FlowMap::new();
        m.insert(FlowId(1), 1);
        m.remove(FlowId(1));
        assert_eq!(m.generation(FlowId(1)), 1);
        // Removing an empty or out-of-range slot bumps nothing.
        m.remove(FlowId(1));
        m.remove(FlowId(50));
        assert_eq!(m.generation(FlowId(1)), 1);
        assert_eq!(m.generation(FlowId(50)), 0, "beyond the slab");
        // Growing the slab preserves earlier generations.
        m.insert(FlowId(9), 9);
        assert_eq!(m.generation(FlowId(1)), 1);
        assert_eq!(m.generation(FlowId(9)), 0);
    }

    /// Churn stress for the retirement path: a million insert/remove
    /// cycles funnelled through a 64-slot id window. Every cycle a
    /// "stale actor" captures the `(id, generation)` pair of the tenant
    /// it is about to tear down and verifies the bump makes the captured
    /// pair unmatchable afterwards; at the end the slab must have grown
    /// to peak concurrency and not one slot further.
    #[test]
    fn million_cycle_churn_stays_bounded_with_detectable_stale_ids() {
        const CONCURRENCY: u64 = 64;
        const CYCLES: u64 = 1_000_000;
        let mut m: FlowMap<u64> = FlowMap::new();
        let mut removes = vec![0u32; CONCURRENCY as usize];
        for i in 0..CYCLES {
            let id = FlowId(i % CONCURRENCY);
            if i >= CONCURRENCY {
                let stale = m.generation(id);
                assert_eq!(m.remove(id), Some(i - CONCURRENCY), "tenant intact at {i}");
                removes[id.0 as usize] += 1;
                assert_ne!(
                    m.generation(id),
                    stale,
                    "stale id must be detectable at {i}"
                );
            }
            assert_eq!(m.insert(id, i), None, "slot must be empty at {i}");
        }
        for (slot, &r) in removes.iter().enumerate() {
            assert_eq!(
                m.generation(FlowId(slot as u64)),
                r,
                "one bump per occupancy"
            );
        }
        assert_eq!(m.len(), CONCURRENCY as usize);
        assert_eq!(m.peak_len(), CONCURRENCY as usize);
        assert_eq!(
            m.capacity(),
            CONCURRENCY as usize,
            "slab must be bounded by peak concurrency, not total churn"
        );
    }

    #[test]
    fn ids_past_the_table_are_absent_not_a_panic() {
        let mut m: FlowMap<u8> = FlowMap::new();
        m.insert(FlowId(2), 2);
        for id in [FlowId(u64::from(u32::MAX)), FlowId(u64::MAX)] {
            assert_eq!(m.get(id), None);
            assert_eq!(m.get_mut(id), None);
            assert_eq!(m.remove(id), None);
            assert_eq!(m.generation(id), 0);
        }
        assert_eq!(m.capacity(), 3, "ids 0 and 1 are holes");
    }

    /// The slab reuses the most recently freed index first and never
    /// grows past the peak number of live entries.
    #[test]
    fn slab_reuses_freed_indices() {
        let mut s: Slab<&str> = Slab::new("test slab");
        let (a, b, c) = (s.insert("a"), s.insert("b"), s.insert("c"));
        assert_eq!((a, b, c), (0, 1, 2));
        assert_eq!(s.remove(b), Some("b"));
        assert_eq!(s.remove(b), None, "already free");
        assert_eq!(s.get(b), None);
        assert_eq!(s.remove(a), Some("a"));
        assert_eq!(s.insert("d"), a, "last freed, first reused");
        assert_eq!(s.insert("e"), b);
        assert_eq!(s.insert("f"), 3, "no free slot left");
        *s.get_mut(c).expect("live") = "C";
        assert_eq!(s.get(c), Some(&"C"));
        assert_eq!(s.capacity(), 4);
        assert_eq!(s.get(u32::MAX), None);
        assert_eq!(s.remove(u32::MAX), None);
        for i in 0..1_000 {
            let j = s.insert("churn");
            assert_eq!(s.remove(j), Some("churn"), "cycle {i}");
        }
        assert_eq!(s.capacity(), 5, "churn reuses one slot");
    }

    #[test]
    fn iterates_in_id_order() {
        let mut m: FlowMap<&str> = FlowMap::new();
        m.insert(FlowId(5), "e");
        m.insert(FlowId(1), "b");
        m.insert(FlowId(9), "j");
        let got: Vec<(u64, &str)> = m.iter().map(|(id, v)| (id.0, *v)).collect();
        assert_eq!(got, vec![(1, "b"), (5, "e"), (9, "j")]);
        for (_, v) in m.iter_mut() {
            *v = "x";
        }
        assert!(m.iter().all(|(_, v)| *v == "x"));
    }
}
