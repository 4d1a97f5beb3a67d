//! Generation-indexed packet arena.
//!
//! Every in-flight packet lives in exactly one [`PacketArena`] slot, and
//! events carry a copyable [`PacketId`] instead of an owned
//! [`Packet`]. That keeps the event queue's entries small (no 80-byte
//! packet payload churning through wheel buckets) and makes every
//! handler a borrow of the slot rather than a move or a clone — the
//! allocation-free dataplane discipline hardware token-flow-control
//! schemes assume of a real switch pipeline.
//!
//! Slots are recycled on delivery or drop. Each slot carries a
//! generation counter bumped on free, and ids embed the generation they
//! were allocated under, so a stale id (a use-after-free bug in the
//! simulator) is *detected* — [`PacketArena::get`] panics — rather than
//! silently aliasing whatever packet reused the slot. This mirrors the
//! [`crate::sched::TimerHandle`] slab and the FlowMap generation scheme.
//!
//! Determinism: slot indices are assigned LIFO from the free list, so
//! for a fixed event order the id assignment (and thus everything
//! derived from it) is identical run-to-run. Ids never appear in
//! exported artifacts.
//!
//! Each slot also carries one `u32` link, which sits in what would
//! otherwise be the slot's padding. A live packet's link chains it into
//! the FIFO of the port it is queued at ([`crate::queue::PortQueue`]
//! keeps only the head and tail), and a free slot's link chains it into
//! the free list. A packet is in at most one FIFO, and never in one
//! once freed, so the two uses never overlap.

use crate::packet::Packet;

/// Handle to a packet stored in a [`PacketArena`].
///
/// Copyable and 8 bytes: an index plus the generation the slot had when
/// this id was allocated. An id goes stale the moment its packet is
/// freed; stale ids are rejected with a panic, never aliased.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketId {
    idx: u32,
    gen: u32,
}

impl PacketId {
    /// Slot index (diagnostics only; not stable across frees).
    pub fn index(self) -> u32 {
        self.idx
    }

    /// Packs `(generation, index)` into one `u64`, unique over a run:
    /// slots recycle but generations only grow. Used as the span-tracker
    /// map key so recycled slots never alias a live span.
    pub fn key(self) -> u64 {
        (u64::from(self.gen) << 32) | u64::from(self.idx)
    }
}

/// End of a slot-link chain.
pub(crate) const NIL: u32 = u32::MAX;

#[derive(Debug)]
struct Slot {
    gen: u32,
    /// The next slot of the port FIFO (live slot) or of the free list
    /// (free slot), or [`NIL`].
    next: u32,
    pkt: Option<Packet>,
}

// The link lives in the padding after `gen`: linking costs no memory.
const _: () = assert!(std::mem::size_of::<Slot>() == 80);

/// A slab of in-flight packets with generation-checked handles.
#[derive(Debug)]
pub struct PacketArena {
    slots: Vec<Slot>,
    /// Top of the free-slot stack, threaded through the slots' links.
    free: u32,
    live: usize,
    allocated_total: u64,
}

impl Default for PacketArena {
    fn default() -> Self {
        Self {
            slots: Vec::new(),
            free: NIL,
            live: 0,
            allocated_total: 0,
        }
    }
}

impl PacketArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores `pkt` and returns its id. Reuses a freed slot when one is
    /// available (LIFO), growing the slab otherwise.
    pub fn alloc(&mut self, pkt: Packet) -> PacketId {
        self.live += 1;
        self.allocated_total += 1;
        if self.free != NIL {
            let idx = self.free;
            let slot = &mut self.slots[idx as usize];
            debug_assert!(slot.pkt.is_none(), "free-list slot still occupied");
            self.free = slot.next;
            slot.next = NIL;
            slot.pkt = Some(pkt);
            return PacketId {
                idx,
                gen: slot.gen,
            };
        }
        let idx = u32::try_from(self.slots.len()).expect("packet arena exceeds u32 slots");
        assert!(idx != NIL, "packet arena exceeds u32 slots");
        self.slots.push(Slot {
            gen: 0,
            next: NIL,
            pkt: Some(pkt),
        });
        PacketId { idx, gen: 0 }
    }

    /// Points live packet `id`'s link at slot `next` ([`NIL`] ends the
    /// chain).
    pub(crate) fn set_next(&mut self, id: u32, next: u32) {
        let slot = &mut self.slots[id as usize];
        debug_assert!(slot.pkt.is_some(), "linking a free slot");
        slot.next = next;
    }

    /// The id of the live packet in slot `idx` and the slot its link
    /// points at.
    pub(crate) fn linked(&self, idx: u32) -> (PacketId, u32) {
        let slot = &self.slots[idx as usize];
        debug_assert!(slot.pkt.is_some(), "following a free slot");
        (PacketId { idx, gen: slot.gen }, slot.next)
    }

    /// Shared access to the packet behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale (its packet was freed) — a stale id is a
    /// simulator bug, and aliasing the slot's new occupant would corrupt
    /// the run silently.
    pub fn get(&self, id: PacketId) -> &Packet {
        let slot = &self.slots[id.idx as usize];
        assert_eq!(
            slot.gen, id.gen,
            "stale PacketId {id:?}: slot reused under generation {}",
            slot.gen
        );
        slot.pkt.as_ref().expect("live generation has a packet")
    }

    /// Mutable access to the packet behind `id`.
    ///
    /// # Panics
    ///
    /// Panics on stale ids, like [`get`](Self::get).
    pub fn get_mut(&mut self, id: PacketId) -> &mut Packet {
        let slot = &mut self.slots[id.idx as usize];
        assert_eq!(
            slot.gen, id.gen,
            "stale PacketId {id:?}: slot reused under generation {}",
            slot.gen
        );
        slot.pkt.as_mut().expect("live generation has a packet")
    }

    /// Shared access that returns `None` for stale ids instead of
    /// panicking (assertions and tests).
    pub fn try_get(&self, id: PacketId) -> Option<&Packet> {
        let slot = self.slots.get(id.idx as usize)?;
        if slot.gen != id.gen {
            return None;
        }
        slot.pkt.as_ref()
    }

    /// Removes the packet behind `id`, bumping the slot generation so
    /// `id` (and any copy of it) goes stale, and returns the packet.
    ///
    /// # Panics
    ///
    /// Panics on stale ids (double free).
    pub fn free(&mut self, id: PacketId) -> Packet {
        let slot = &mut self.slots[id.idx as usize];
        assert_eq!(
            slot.gen, id.gen,
            "double free of PacketId {id:?}: slot already at generation {}",
            slot.gen
        );
        let pkt = slot.pkt.take().expect("live generation has a packet");
        slot.gen = slot.gen.wrapping_add(1);
        slot.next = self.free;
        self.free = id.idx;
        self.live -= 1;
        pkt
    }

    /// Packets currently alive in the arena.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Whether no packets are alive.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Slots ever created (the slab high-water mark).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total allocations over the arena's lifetime.
    pub fn allocated_total(&self) -> u64 {
        self.allocated_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, NodeId};

    fn pkt(seq: u64) -> Packet {
        Packet::data(FlowId(1), NodeId(0), NodeId(1), seq, 100)
    }

    #[test]
    fn alloc_get_free_roundtrip() {
        let mut a = PacketArena::new();
        assert!(a.is_empty());
        let id = a.alloc(pkt(7));
        assert_eq!(a.live(), 1);
        assert_eq!(a.get(id).seq, 7);
        a.get_mut(id).seq = 8;
        assert_eq!(a.free(id).seq, 8);
        assert!(a.is_empty());
    }

    #[test]
    fn slots_recycle_lifo_with_fresh_generations() {
        let mut a = PacketArena::new();
        let id1 = a.alloc(pkt(1));
        let id2 = a.alloc(pkt(2));
        assert_ne!(id1, id2);
        a.free(id2);
        let id3 = a.alloc(pkt(3));
        assert_eq!(id3.index(), id2.index(), "freed slot reused first");
        assert_ne!(id3, id2, "generation distinguishes reuse");
        assert_eq!(a.get(id3).seq, 3);
        assert_eq!(a.capacity(), 2, "no slab growth on reuse");
        assert_eq!(a.allocated_total(), 3);
    }

    /// The free list threaded through the slot links is a stack: slots
    /// come back most recently freed first, as from the `Vec` it
    /// replaced.
    #[test]
    fn free_list_reuses_slots_in_lifo_order() {
        let mut a = PacketArena::new();
        let ids: Vec<PacketId> = (0..5).map(|s| a.alloc(pkt(s))).collect();
        for &i in &[1usize, 3, 0, 4] {
            a.free(ids[i]);
        }
        let again: Vec<u32> = (0..5).map(|s| a.alloc(pkt(s)).index()).collect();
        assert_eq!(again, vec![4, 0, 3, 1, 5]);
        assert_eq!(a.capacity(), 6);
    }

    #[test]
    fn stale_ids_are_detected_not_aliased() {
        let mut a = PacketArena::new();
        let id = a.alloc(pkt(1));
        a.free(id);
        let newer = a.alloc(pkt(2));
        assert_eq!(newer.index(), id.index());
        assert!(a.try_get(id).is_none(), "stale id must not alias");
        assert_eq!(a.try_get(newer).map(|p| p.seq), Some(2));
    }

    #[test]
    #[should_panic(expected = "stale PacketId")]
    fn get_panics_on_stale_id() {
        let mut a = PacketArena::new();
        let id = a.alloc(pkt(1));
        a.free(id);
        a.alloc(pkt(2));
        let _ = a.get(id);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a = PacketArena::new();
        let id = a.alloc(pkt(1));
        a.free(id);
        a.free(id);
    }
}
