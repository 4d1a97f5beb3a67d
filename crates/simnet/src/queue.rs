//! Per-port FIFO packet queues with byte accounting.

use crate::arena::{PacketArena, PacketId, NIL};

/// A byte-bounded FIFO for one output port.
///
/// The queue is an intrusive singly linked list through the packets'
/// own [`PacketArena`] slots: it keeps the head and tail slot indices,
/// and each queued packet's slot links to the next. So a queue is four
/// `u32`s (16 B) whatever its backlog, it never allocates, and enqueue
/// and dequeue touch one arena slot each. Wire sizes are read from the
/// packets ([`crate::packet::Packet::wire_bytes`] is a pure function of
/// the payload), not stored, and the queue keeps no packet count. The
/// backlog and the high-water mark are `u32` bytes. The capacity is
/// not stored either: it is a port parameter the caller passes to
/// [`enqueue`](Self::enqueue), and must fit a `u32` (a builder refuses
/// a larger buffer), so an accepted packet never takes the backlog past
/// it. Enqueue refuses a packet that would push the backlog over the
/// capacity (tail drop); the caller counts the drop.
///
/// # Examples
///
/// ```
/// use tfc_simnet::arena::PacketArena;
/// use tfc_simnet::packet::{FlowId, NodeId, Packet};
/// use tfc_simnet::queue::PortQueue;
///
/// let mut arena = PacketArena::new();
/// let mut q = PortQueue::new();
/// for _ in 0..2 {
///     let id = arena.alloc(Packet::data(FlowId(0), NodeId(0), NodeId(1), 0, 1460));
///     assert!(q.enqueue(id, &mut arena, 3_000));
/// }
/// let third = arena.alloc(Packet::data(FlowId(0), NodeId(0), NodeId(1), 0, 1460));
/// assert!(!q.enqueue(third, &mut arena, 3_000)); // third full frame exceeds 3000 B
/// assert_eq!(q.dequeue(&arena).map(|(_, wire)| wire), Some(1500));
/// ```
#[derive(Debug)]
pub struct PortQueue {
    /// Slot of the head-of-line packet, or `NIL` when empty.
    head: u32,
    /// Slot of the last packet (meaningless when empty).
    tail: u32,
    bytes: u32,
    max_bytes_seen: u32,
}

impl Default for PortQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl PortQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            head: NIL,
            tail: NIL,
            bytes: 0,
            max_bytes_seen: 0,
        }
    }

    /// Attempts to append live packet `id`; returns `false` when its
    /// wire size would push the backlog over `capacity_bytes`. The
    /// caller keeps ownership of the arena slot on rejection, must free
    /// it, and counts the drop. An accepted packet must stay live, and
    /// in no other queue, until it is dequeued.
    pub fn enqueue(&mut self, id: PacketId, arena: &mut PacketArena, capacity_bytes: u32) -> bool {
        let wire = arena.get(id).wire_bytes();
        let Some(bytes) = u32::try_from(u64::from(self.bytes) + wire)
            .ok()
            .filter(|&b| b <= capacity_bytes)
        else {
            return false;
        };
        self.bytes = bytes;
        self.max_bytes_seen = self.max_bytes_seen.max(bytes);
        let idx = id.index();
        arena.set_next(idx, NIL);
        if self.head == NIL {
            self.head = idx;
        } else {
            arena.set_next(self.tail, idx);
        }
        self.tail = idx;
        true
    }

    /// Removes and returns the head-of-line packet id and its wire size.
    pub fn dequeue(&mut self, arena: &PacketArena) -> Option<(PacketId, u64)> {
        if self.head == NIL {
            return None;
        }
        let (id, next) = arena.linked(self.head);
        let wire = arena.get(id).wire_bytes();
        self.head = next;
        // An accepted packet's wire size fits the backlog that holds it.
        self.bytes -= u32::try_from(wire).expect("a queued packet fits the u32 backlog");
        Some((id, wire))
    }

    /// Wire size of the head-of-line packet, if any.
    pub fn peek_wire_bytes(&self, arena: &PacketArena) -> Option<u64> {
        if self.head == NIL {
            return None;
        }
        Some(arena.get(arena.linked(self.head).0).wire_bytes())
    }

    /// Current backlog in wire bytes.
    pub fn bytes(&self) -> u64 {
        u64::from(self.bytes)
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.head == NIL
    }

    /// Highest backlog (bytes) ever observed.
    pub fn max_bytes_seen(&self) -> u64 {
        u64::from(self.max_bytes_seen)
    }
}

// Every port embeds one: four `u32`s.
const _: () = assert!(std::mem::size_of::<PortQueue>() == 16);

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use super::*;
    use crate::packet::{FlowId, NodeId, Packet};
    use rng::props::{cases, vec_u64};
    use rng::Rng;

    fn alloc(arena: &mut PacketArena, payload: u64, seq: u64) -> PacketId {
        let mut p = Packet::data(FlowId(0), NodeId(0), NodeId(1), 0, payload);
        p.seq = seq;
        arena.alloc(p)
    }

    #[test]
    fn fifo_order() {
        let mut arena = PacketArena::new();
        let mut q = PortQueue::new();
        for seq in 0..5 {
            let id = alloc(&mut arena, 100, seq);
            q.enqueue(id, &mut arena, 1 << 20);
        }
        for seq in 0..5 {
            let (id, _) = q.dequeue(&arena).unwrap();
            assert_eq!(arena.get(id).seq, seq);
        }
        assert!(q.dequeue(&arena).is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn byte_accounting() {
        let mut arena = PacketArena::new();
        let mut q = PortQueue::new();
        let id = alloc(&mut arena, 1460, 0);
        q.enqueue(id, &mut arena, 1 << 20);
        assert_eq!(q.bytes(), 1500);
        let id = alloc(&mut arena, 0, 0); // min frame 64
        q.enqueue(id, &mut arena, 1 << 20);
        assert_eq!(q.bytes(), 1564);
        assert_eq!(q.peek_wire_bytes(&arena), Some(1500));
        let (_, wire) = q.dequeue(&arena).unwrap();
        assert_eq!(wire, 1500);
        assert_eq!(q.bytes(), 64);
        assert_eq!(q.peek_wire_bytes(&arena), Some(64));
        assert_eq!(q.max_bytes_seen(), 1564);
    }

    #[test]
    fn tail_drop_counts() {
        let mut arena = PacketArena::new();
        let mut q = PortQueue::new();
        let id = alloc(&mut arena, 1460, 0);
        assert!(q.enqueue(id, &mut arena, 1500));
        let id = alloc(&mut arena, 1460, 1);
        assert!(!q.enqueue(id, &mut arena, 1500));
        assert_eq!(q.bytes(), 1500, "the refused packet is not queued");
        assert_eq!(q.dequeue(&arena).map(|(_, wire)| wire), Some(1500));
        assert!(q.dequeue(&arena).is_none());
    }

    #[test]
    fn bytes_never_exceed_capacity() {
        cases(128, |_case, rng| {
            let sizes = vec_u64(rng, 1..100, 0..3000);
            let cap = rng.gen_range(64..100_000u32);
            let mut arena = PacketArena::new();
            let mut q = PortQueue::new();
            for &s in &sizes {
                let id = alloc(&mut arena, s, 0);
                if !q.enqueue(id, &mut arena, cap) {
                    arena.free(id);
                }
                assert!(
                    q.bytes() <= u64::from(cap),
                    "queue {} over cap {cap} after {s}",
                    q.bytes()
                );
            }
            // Draining returns accounting to zero and frees every slot.
            while let Some((id, _)) = q.dequeue(&arena) {
                arena.free(id);
            }
            assert_eq!(q.bytes(), 0, "bytes nonzero after drain, sizes {sizes:?}");
            assert!(arena.is_empty(), "arena leaked slots, sizes {sizes:?}");
        });
    }

    /// The `VecDeque` FIFO the arena-linked queue replaced, as a model,
    /// with `u64` byte counters.
    struct Model {
        fifo: VecDeque<(PacketId, u64)>,
        bytes: u64,
        capacity_bytes: u64,
        max_bytes_seen: u64,
    }

    impl Model {
        fn new(capacity_bytes: u64) -> Self {
            Self {
                fifo: VecDeque::new(),
                bytes: 0,
                capacity_bytes,
                max_bytes_seen: 0,
            }
        }

        fn enqueue(&mut self, id: PacketId, wire: u64) -> bool {
            if self.bytes + wire > self.capacity_bytes {
                return false;
            }
            self.bytes += wire;
            self.max_bytes_seen = self.max_bytes_seen.max(self.bytes);
            self.fifo.push_back((id, wire));
            true
        }

        fn dequeue(&mut self) -> Option<(PacketId, u64)> {
            let (id, wire) = self.fifo.pop_front()?;
            self.bytes -= wire;
            Some((id, wire))
        }
    }

    fn assert_same(q: &PortQueue, m: &Model, arena: &PacketArena, at: &str) {
        assert_eq!(q.bytes(), m.bytes, "{at}: bytes");
        assert_eq!(q.is_empty(), m.fifo.is_empty(), "{at}: is_empty");
        assert_eq!(q.max_bytes_seen(), m.max_bytes_seen, "{at}: max_bytes_seen");
        assert_eq!(
            q.peek_wire_bytes(arena),
            m.fifo.front().map(|&(_, w)| w),
            "{at}: peek_wire_bytes"
        );
    }

    /// Several ports' FIFOs linked through one shared arena, driven by
    /// random enqueues (with overflow drops), dequeues that deliver or
    /// forward the packet to another FIFO, whole-queue drains (a downed
    /// link) and packets allocated and freed outside any queue (in
    /// flight), match one `VecDeque` model per port. One case in four
    /// gives every port a capacity within 4 KB of `u32::MAX` and draws
    /// packets of up to 2^31 B, so the `u32` backlog runs up against
    /// its capacity and a sum past `u32::MAX` must be refused, not
    /// wrapped.
    #[test]
    fn shared_arena_fifos_match_vecdeque_model() {
        cases(256, |case, rng| {
            let ports = rng.gen_range(1..6usize);
            let huge = rng.gen_range(0..4u32) == 0;
            let payload = if huge { 1u64 << 31 } else { 3_000 };
            let mut arena = PacketArena::new();
            let mut qs: Vec<PortQueue> = Vec::new();
            let mut models: Vec<Model> = Vec::new();
            let mut caps: Vec<u32> = Vec::new();
            for _ in 0..ports {
                let cap = if huge {
                    u32::MAX - rng.gen_range(0..4_096u32)
                } else {
                    rng.gen_range(64..20_000u32)
                };
                qs.push(PortQueue::new());
                models.push(Model::new(u64::from(cap)));
                caps.push(cap);
            }
            let mut loose: Vec<PacketId> = Vec::new();
            let mut seq = 0u64;
            for step in 0..rng.gen_range(1..400usize) {
                let p = rng.gen_range(0..ports);
                let at = format!("case {case} step {step} port {p}");
                match rng.gen_range(0..10u32) {
                    0..=4 => {
                        seq += 1;
                        let id = alloc(&mut arena, rng.gen_range(0..payload), seq);
                        let wire = arena.get(id).wire_bytes();
                        let took = qs[p].enqueue(id, &mut arena, caps[p]);
                        assert_eq!(took, models[p].enqueue(id, wire), "{at}: verdict");
                        if !took {
                            arena.free(id);
                        }
                    }
                    5..=6 => {
                        let got = qs[p].dequeue(&arena);
                        assert_eq!(got, models[p].dequeue(), "{at}: dequeue");
                        let Some((id, wire)) = got else { continue };
                        // Delivered, or forwarded to the next hop's
                        // FIFO with its old link still in the slot.
                        let next = rng.gen_range(0..ports * 2);
                        if next >= ports {
                            arena.free(id);
                        } else {
                            let took = qs[next].enqueue(id, &mut arena, caps[next]);
                            assert_eq!(took, models[next].enqueue(id, wire), "{at}: forward");
                            if !took {
                                arena.free(id);
                            }
                        }
                    }
                    7 => {
                        // Link down: the transmitter drains the FIFO.
                        while let Some(got) = qs[p].dequeue(&arena) {
                            assert_eq!(Some(got), models[p].dequeue(), "{at}: drain");
                            arena.free(got.0);
                        }
                        assert!(models[p].fifo.is_empty(), "{at}: drained");
                    }
                    8 => {
                        seq += 1;
                        loose.push(alloc(&mut arena, 100, seq));
                    }
                    _ => {
                        if !loose.is_empty() {
                            let i = rng.gen_range(0..loose.len());
                            arena.free(loose.swap_remove(i));
                        }
                    }
                }
                for (q, m) in qs.iter().zip(&models) {
                    assert_same(q, m, &arena, &at);
                }
            }
            for (p, (q, m)) in qs.iter_mut().zip(&mut models).enumerate() {
                while let Some(got) = q.dequeue(&arena) {
                    assert_eq!(
                        Some(got),
                        m.dequeue(),
                        "case {case} final drain of port {p}"
                    );
                    assert_eq!(arena.get(got.0).wire_bytes(), got.1);
                    arena.free(got.0);
                }
                assert_same(q, m, &arena, &format!("case {case} port {p} drained"));
            }
            for id in loose {
                arena.free(id);
            }
            assert!(arena.is_empty(), "case {case}: arena leaked slots");
        });
    }
}
