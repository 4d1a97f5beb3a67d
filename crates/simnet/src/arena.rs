//! Generation-indexed packet arena.
//!
//! Every in-flight packet lives in exactly one [`PacketArena`] slot, and
//! events carry a copyable [`PacketId`] instead of an owned
//! [`Packet`]. That keeps the event queue's entries small (no 56-byte
//! packet churning through wheel buckets) and makes every handler a
//! borrow of the slot rather than a move or a clone — the
//! allocation-free dataplane discipline hardware token-flow-control
//! schemes assume of a real switch pipeline.
//!
//! Slots are recycled on delivery or drop. Each slot carries a
//! generation counter bumped on alloc and again on free, so its parity
//! is the slot's liveness: odd while a packet lives in it, even once
//! freed. Ids embed the (odd) generation they were allocated under, so
//! a stale id (a use-after-free bug in the simulator) is *detected* —
//! [`PacketArena::get`] panics — rather than silently aliasing whatever
//! packet reused the slot. The generation wraps after 2^31 reuses of
//! one slot, preserving its parity. This mirrors the
//! [`crate::sched::TimerHandle`] slab.
//!
//! Determinism: slot indices are assigned LIFO from the free list, so
//! for a fixed event order the id assignment (and thus everything
//! derived from it) is identical run-to-run. Ids never appear in
//! exported artifacts.
//!
//! Each slot also carries one `u32` link beside its generation, which
//! with the 56-byte packet makes a slot one 64-byte cache line. A live
//! packet's link chains it into the FIFO of the port it is queued at
//! ([`crate::queue::PortQueue`] keeps only the head and tail), and a
//! free slot's link chains it into the free list. A packet is in at
//! most one FIFO, and never in one once freed, so the two uses never
//! overlap.
//!
//! The slots live in a `Segmented` table: segments of 64, 128, 256, …
//! slots that are allocated once and never move, so growing the arena
//! to the run's peak copies no slot and leaves no freed block behind.

use crate::packet::Packet;
use crate::segmented::Segmented;

/// Handle to a packet stored in a [`PacketArena`].
///
/// Copyable and 8 bytes: an index plus the (odd, live) generation the
/// slot took when this id was allocated. An id goes stale the moment
/// its packet is freed; stale ids are rejected with a panic, never
/// aliased.
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
    /// Odd while the slot holds a live packet, even while it is free.
    gen: u32,
    /// The next slot of the port FIFO (live slot) or of the free list
    /// (free slot), or [`NIL`].
    next: u32,
    /// The live packet; a free slot holds [`VACANT`].
    pkt: Packet,
}

// One cache line: the generation doubles as the liveness tag, so the
// packet needs no `Option` around it.
const _: () = assert!(std::mem::size_of::<Slot>() == 64);

/// Whether a slot at generation `gen` holds a live packet.
fn is_live(gen: u32) -> bool {
    gen & 1 == 1
}

/// What a freed slot is left holding in place of its packet.
const VACANT: Packet = Packet {
    flow: crate::packet::FlowId(0),
    src: crate::packet::NodeId(0),
    dst: crate::packet::NodeId(0),
    seq: 0,
    ack: 0,
    payload: 0,
    flags: crate::packet::Flags(0),
    window: 0,
    weight: 0,
    hop: 0,
    sent_at: crate::units::Time::ZERO,
};

/// A slab of in-flight packets with generation-checked handles.
#[derive(Debug)]
pub struct PacketArena {
    slots: Segmented<Slot>,
    /// Top of the free-slot stack, threaded through the slots' links.
    free: u32,
    live: usize,
    allocated_total: u64,
}

impl Default for PacketArena {
    fn default() -> Self {
        Self {
            slots: Segmented::new("packet arena"),
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
            let slot = &mut self.slots[idx];
            debug_assert!(!is_live(slot.gen), "free-list slot still occupied");
            self.free = slot.next;
            slot.gen = slot.gen.wrapping_add(1);
            slot.next = NIL;
            slot.pkt = pkt;
            return PacketId { idx, gen: slot.gen };
        }
        let idx = self.slots.push(Slot {
            gen: 1,
            next: NIL,
            pkt,
        });
        PacketId { idx, gen: 1 }
    }

    /// Points live packet `id`'s link at slot `next` ([`NIL`] ends the
    /// chain).
    pub(crate) fn set_next(&mut self, id: u32, next: u32) {
        let slot = &mut self.slots[id];
        debug_assert!(is_live(slot.gen), "linking a free slot");
        slot.next = next;
    }

    /// The id of the live packet in slot `idx` and the slot its link
    /// points at.
    pub(crate) fn linked(&self, idx: u32) -> (PacketId, u32) {
        let slot = &self.slots[idx];
        debug_assert!(is_live(slot.gen), "following a free slot");
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
        let slot = &self.slots[id.idx];
        assert_eq!(
            slot.gen, id.gen,
            "stale PacketId {id:?}: slot reused under generation {}",
            slot.gen
        );
        debug_assert!(is_live(slot.gen), "id generation {} is not live", id.gen);
        &slot.pkt
    }

    /// Mutable access to the packet behind `id`.
    ///
    /// # Panics
    ///
    /// Panics on stale ids, like [`get`](Self::get).
    pub fn get_mut(&mut self, id: PacketId) -> &mut Packet {
        let slot = &mut self.slots[id.idx];
        assert_eq!(
            slot.gen, id.gen,
            "stale PacketId {id:?}: slot reused under generation {}",
            slot.gen
        );
        debug_assert!(is_live(slot.gen), "id generation {} is not live", id.gen);
        &mut slot.pkt
    }

    /// Shared access that returns `None` for stale ids instead of
    /// panicking (assertions and tests).
    pub fn try_get(&self, id: PacketId) -> Option<&Packet> {
        let slot = self.slots.get(id.idx)?;
        (slot.gen == id.gen && is_live(slot.gen)).then_some(&slot.pkt)
    }

    /// Removes the packet behind `id`, bumping the slot generation so
    /// `id` (and any copy of it) goes stale, and returns the packet.
    ///
    /// # Panics
    ///
    /// Panics on stale ids (double free).
    pub fn free(&mut self, id: PacketId) -> Packet {
        let slot = &mut self.slots[id.idx];
        assert_eq!(
            slot.gen, id.gen,
            "double free of PacketId {id:?}: slot already at generation {}",
            slot.gen
        );
        debug_assert!(is_live(slot.gen), "id generation {} is not live", id.gen);
        let pkt = std::mem::replace(&mut slot.pkt, VACANT);
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

    /// Seeded random alloc / free sequences against a model of the
    /// slab: slots are reused LIFO and the slab grows only when none is
    /// free, no id is ever handed out twice, every live id reads its own
    /// packet through `get` and `try_get`, every freed id is rejected by
    /// `try_get`, and in the first cases a stale `get` and a double free
    /// panic without disturbing the arena.
    #[test]
    fn random_alloc_free_matches_model() {
        use rng::props::cases;
        use rng::Rng;
        use std::collections::HashSet;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        cases(64, |case, rng| {
            let mut a = PacketArena::new();
            let mut live: Vec<(PacketId, u64)> = Vec::new();
            let mut stale: Vec<PacketId> = Vec::new();
            let mut free_stack: Vec<u32> = Vec::new();
            let mut issued = HashSet::new();
            let mut capacity = 0u32;
            for seq in 0..400u64 {
                if live.is_empty() || rng.gen_bool(0.55) {
                    let id = a.alloc(pkt(seq));
                    let want = free_stack.pop().unwrap_or_else(|| {
                        capacity += 1;
                        capacity - 1
                    });
                    assert_eq!(id.index(), want, "slot reuse order");
                    assert!(issued.insert(id), "{id:?} handed out twice");
                    live.push((id, seq));
                } else {
                    let (id, want) = live.swap_remove(rng.gen_range(0..live.len()));
                    assert_eq!(a.free(id).seq, want);
                    free_stack.push(id.index());
                    stale.push(id);
                }
                assert_eq!(a.live(), live.len());
                assert_eq!(a.capacity(), capacity as usize);
                for &(id, want) in &live {
                    assert_eq!(a.get(id).seq, want, "{id:?}");
                    assert_eq!(a.try_get(id).map(|p| p.seq), Some(want), "{id:?}");
                }
                for &id in &stale {
                    assert!(a.try_get(id).is_none(), "stale {id:?} still readable");
                }
            }
            if case < 4 {
                if let Some(&id) = stale.last() {
                    let get = catch_unwind(AssertUnwindSafe(|| a.get(id).seq));
                    assert!(get.is_err(), "stale get of {id:?} did not panic");
                    let free = catch_unwind(AssertUnwindSafe(|| a.free(id)));
                    assert!(free.is_err(), "double free of {id:?} did not panic");
                    assert_eq!(a.live(), live.len(), "a rejected free changed the arena");
                }
            }
        });
    }

    /// A slot's generation wraps past `u32::MAX` with its parity intact:
    /// the id of the last odd generation is live until freed, stale
    /// after, and the slot's next tenant starts over at generation 1.
    #[test]
    fn generation_wraps_with_parity() {
        let mut a = PacketArena::new();
        let first = a.alloc(pkt(1));
        a.free(first);
        // Fast-forward the free slot to the last even generation.
        a.slots[first.index()].gen = u32::MAX - 1;
        let last = a.alloc(pkt(2));
        assert_eq!(last.index(), first.index());
        assert_eq!(a.get(last).seq, 2);
        assert_eq!(a.free(last).seq, 2);
        assert!(
            a.try_get(last).is_none(),
            "freed across the wrap but readable"
        );
        assert!(a.is_empty());
        let wrapped = a.alloc(pkt(3));
        assert_eq!(wrapped.index(), first.index());
        assert_ne!(wrapped, last);
        assert_eq!(a.try_get(wrapped).map(|p| p.seq), Some(3));
        assert!(a.try_get(last).is_none());
    }
}
