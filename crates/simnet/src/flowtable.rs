//! Dense per-flow tables.
//!
//! The simulator keeps two [`Slab`]s: one of flow records, whose slot
//! indices are the flow ids, and one of endpoint records. A slab hands
//! out its own indices and reuses freed ones, so both tables track the
//! flows live at once, not every flow ever started:
//!
//! - without retirement no flow record is ever freed, so flow ids come
//!   out sequentially from zero;
//! - with retirement ([`crate::retire`]) a flow's record is freed once
//!   nothing can reach the flow (see `SimCore::free_if_unreachable`), so
//!   its id is reused at once, most recently freed first;
//! - an endpoint record is freed at that same point, in either mode.

use std::ops::{Index, IndexMut};

use crate::segmented::Segmented;

/// A table that hands out `u32` indices and reuses freed ones, most
/// recently freed first. Its capacity is the peak number of entries
/// live at once; the slots sit in never-moving segments, so growing the
/// table never copies or frees the entries it holds.
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

    /// Number of live entries.
    pub(crate) fn len(&self) -> usize {
        self.slots.len() - self.free.len()
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

    /// The live entries with their indices, in index order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        (0..)
            .zip(self.slots.iter())
            .filter_map(|(i, v)| Some((i, v.as_ref()?)))
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
        assert_eq!(s.len(), 1);
        assert_eq!(s.insert("d"), a, "last freed, first reused");
        assert_eq!(s.insert("e"), b);
        assert_eq!(s.insert("f"), 3, "no free slot left");
        *s.get_mut(c).expect("live") = "C";
        assert_eq!(s.get(c), Some(&"C"));
        assert_eq!((s.len(), s.capacity()), (4, 4));
        assert_eq!(s.get(u32::MAX), None);
        assert_eq!(s.remove(u32::MAX), None);
        for i in 0..1_000 {
            let j = s.insert("churn");
            assert_eq!(s.remove(j), Some("churn"), "cycle {i}");
        }
        assert_eq!(s.capacity(), 5, "churn reuses one slot");
    }

    /// Churn through a 64-entry window grows the slab to peak
    /// concurrency and not one slot further, and iteration skips the
    /// free slots in index order.
    #[test]
    fn churn_stays_bounded_and_iterates_in_index_order() {
        const CONCURRENCY: u32 = 64;
        let mut s: Slab<u64> = Slab::new("test slab");
        let mut live = std::collections::VecDeque::new();
        for i in 0..100_000u64 {
            if live.len() == CONCURRENCY as usize {
                let j = live.pop_front().expect("full window");
                assert!(s.remove(j).is_some(), "tenant intact at {i}");
            }
            live.push_back(s.insert(i));
        }
        assert_eq!((s.len(), s.capacity()), (64, 64));
        s.remove(5);
        s.remove(1);
        let got: Vec<u32> = s.iter().map(|(i, _)| i).take(4).collect();
        assert_eq!(got, vec![0, 2, 3, 4]);
    }
}
